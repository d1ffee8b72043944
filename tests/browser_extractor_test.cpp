// Tests for fingerprint extraction: modifiers, payload budgets, the
// SimulatedDom consistency, and the per-install jitter envelope.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "browser/engine_timelines.h"
#include "browser/extractor.h"

namespace bp::browser {
namespace {

const BrowserRelease* release(ua::Vendor vendor, int version) {
  const auto* r = ReleaseDatabase::instance().find(vendor, version);
  EXPECT_NE(r, nullptr);
  return r;
}

Environment make_env(ua::Vendor vendor, int version, std::uint32_t modifiers = 0,
                     std::uint64_t salt = 1) {
  Environment env;
  env.release = release(vendor, version);
  env.modifiers = modifiers;
  env.session_salt = salt;
  return env;
}

std::size_t element_index() {
  return FeatureCatalog::instance().index_of(
      "Object.getOwnPropertyNames(Element.prototype).length");
}

// Find a salt whose extraction is jitter-free for this environment so
// modifier deltas can be asserted exactly.
std::uint64_t quiet_salt(ua::Vendor vendor, int version) {
  const auto& base =
      baseline_candidates(release(vendor, version)->engine, version);
  for (std::uint64_t salt = 1; salt < 200; ++salt) {
    Environment env = make_env(vendor, version, 0, salt);
    if (extract_candidates(env) == base) return salt;
  }
  ADD_FAILURE() << "no quiet salt found";
  return 0;
}

// ctest runs each case in its own process, so these are the table's
// first lookups: the threads race its one-time construction (the TSan
// pass sees any unsynchronized write), then must agree on one table.
TEST(BaselineTable, ConcurrentFirstCallsShareOneTable) {
  constexpr std::size_t kThreads = 4;
  const int versions[kThreads] = {112, 105, 112, 96};
  std::vector<const CandidateValues*> seen(kThreads, nullptr);
  std::atomic<std::size_t> waiting{kThreads};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() != 0) std::this_thread::yield();
      seen[t] = &baseline_candidates(Engine::kBlink, versions[t], t % 2 == 1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(seen[0], seen[2]);  // same key, same entry
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_NE(seen[t], nullptr);
    const bool previous = t % 2 == 1;
    for (std::size_t i = 0; i < seen[t]->size(); ++i) {
      ASSERT_EQ((*seen[t])[i],
                previous ? previous_era_value(Engine::kBlink, versions[t], i)
                         : baseline_value(Engine::kBlink, versions[t], i))
          << "version " << versions[t] << " candidate " << i;
    }
  }
}

TEST(BaselineTable, CoversEveryReleaseAndRejectsOthers) {
  for (const BrowserRelease& r : ReleaseDatabase::instance().releases()) {
    EXPECT_EQ(baseline_candidates(r.engine, r.engine_version).size(),
              FeatureCatalog::instance().candidate_count());
  }
  EXPECT_THROW(baseline_candidates(Engine::kBlink, 9999), std::out_of_range);
  EXPECT_THROW(baseline_candidates(Engine::kWebKit, 17), std::out_of_range);
}

TEST(Extractor, PristineMatchesBaseline) {
  const std::uint64_t salt = quiet_salt(ua::Vendor::kChrome, 112);
  Environment env = make_env(ua::Vendor::kChrome, 112, 0, salt);
  EXPECT_EQ(extract_candidates(env),
            baseline_candidates(Engine::kBlink, 112));
}

TEST(Extractor, DuckDuckGoAddsTwoToElement) {
  const std::uint64_t salt = quiet_salt(ua::Vendor::kChrome, 111);
  Environment plain = make_env(ua::Vendor::kChrome, 111, 0, salt);
  Environment ddg = make_env(
      ua::Vendor::kChrome, 111,
      static_cast<std::uint32_t>(Modifier::kDuckDuckGoExtension), salt);
  const auto base = extract_candidates(plain);
  const auto modified = extract_candidates(ddg);
  EXPECT_EQ(modified[element_index()], base[element_index()] + 2);
}

TEST(Extractor, FirefoxNoServiceWorkersZeroesSwInterfaces) {
  const std::uint64_t salt = quiet_salt(ua::Vendor::kFirefox, 110);
  Environment env = make_env(
      ua::Vendor::kFirefox, 110,
      static_cast<std::uint32_t>(Modifier::kFirefoxNoServiceWorkers), salt);
  const auto values = extract_candidates(env);
  const auto& catalog = FeatureCatalog::instance();
  for (const char* iface :
       {"ServiceWorkerRegistration", "ServiceWorkerContainer", "ServiceWorker"}) {
    const std::size_t idx = catalog.index_of(
        std::string("Object.getOwnPropertyNames(") + iface +
        ".prototype).length");
    EXPECT_EQ(values[idx], 0) << iface;
  }
}

TEST(Extractor, FirefoxNoServiceWorkersLeavesProductionSetAlone) {
  const std::uint64_t salt = quiet_salt(ua::Vendor::kFirefox, 110);
  Environment plain = make_env(ua::Vendor::kFirefox, 110, 0, salt);
  Environment modified = make_env(
      ua::Vendor::kFirefox, 110,
      static_cast<std::uint32_t>(Modifier::kFirefoxNoServiceWorkers), salt);
  EXPECT_EQ(extract_final(plain), extract_final(modified));
}

TEST(Extractor, TorPatchsetGutsWebGl) {
  const std::uint64_t salt = quiet_salt(ua::Vendor::kFirefox, 102);
  Environment env = make_env(ua::Vendor::kFirefox, 102,
                             static_cast<std::uint32_t>(Modifier::kTorPatchset),
                             salt);
  const auto& catalog = FeatureCatalog::instance();
  const auto values = extract_candidates(env);
  EXPECT_EQ(values[catalog.index_of(
                "Object.getOwnPropertyNames(WebGL2RenderingContext.prototype)"
                ".length")],
            0);
  EXPECT_EQ(values[catalog.index_of(
                "Object.getOwnPropertyNames(AudioContext.prototype).length")],
            0);
}

TEST(Extractor, BravePresentsChromeUserAgent) {
  Environment env = make_env(
      ua::Vendor::kChrome, 113,
      static_cast<std::uint32_t>(Modifier::kBraveStandardShields));
  EXPECT_EQ(env.presented_user_agent().vendor, ua::Vendor::kChrome);
}

TEST(Extractor, BraveBlocksDeviceMemory) {
  Environment env = make_env(
      ua::Vendor::kChrome, 113,
      static_cast<std::uint32_t>(Modifier::kBraveStandardShields));
  const auto& catalog = FeatureCatalog::instance();
  const auto values = extract_candidates(env);
  EXPECT_EQ(values[catalog.index_of(
                "Navigator.prototype.hasOwnProperty('deviceMemory')")],
            0);
}

TEST(Extractor, TorPresentsFirefoxUserAgent) {
  Environment env = make_env(ua::Vendor::kFirefox, 102,
                             static_cast<std::uint32_t>(Modifier::kTorPatchset));
  EXPECT_EQ(env.presented_user_agent().vendor, ua::Vendor::kFirefox);
  EXPECT_EQ(env.presented_user_agent().major_version, 102);
}

TEST(Extractor, JitterIsAtMostOneUnitOnOneFeature) {
  const auto& base = baseline_candidates(Engine::kBlink, 105);
  for (std::uint64_t salt = 0; salt < 300; ++salt) {
    Environment env = make_env(ua::Vendor::kChrome, 105, 0, salt);
    const auto values = extract_candidates(env);
    int changed = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i] != base[i]) {
        ++changed;
        EXPECT_LE(std::abs(values[i] - base[i]), 1);
      }
    }
    EXPECT_LE(changed, 1) << "salt " << salt;
  }
}

TEST(Extractor, SelectFeaturesPicksInOrder) {
  const CandidateValues values = {10, 20, 30, 40};
  const FinalValues out = select_features(values, {3, 0});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 40.0);
  EXPECT_DOUBLE_EQ(out[1], 10.0);
}

TEST(Extractor, ExtractFinalIs28Wide) {
  Environment env = make_env(ua::Vendor::kChrome, 112);
  EXPECT_EQ(extract_final(env).size(), 28u);
}

TEST(Payload, ProductionUnderOneKilobyte) {
  // The §3 budget: the production payload must stay under 1KB.
  Environment env = make_env(ua::Vendor::kChrome, 112);
  const std::string payload = serialize_payload(
      extract_final(env), ua::format_user_agent(env.presented_user_agent()),
      "0123456789abcdef");
  EXPECT_LT(payload.size(), 1024u);
  EXPECT_GT(payload.size(), 50u);
}

TEST(Payload, ContainsUserAgentAndSession) {
  Environment env = make_env(ua::Vendor::kFirefox, 102);
  const std::string payload =
      serialize_payload(extract_final(env), "UA-STRING", "SESSION-ID");
  EXPECT_NE(payload.find("UA-STRING"), std::string::npos);
  EXPECT_NE(payload.find("SESSION-ID"), std::string::npos);
}

TEST(SimulatedDom, MatchesDirectExtraction) {
  Environment env = make_env(ua::Vendor::kChrome, 110, 0, 7);
  SimulatedDom dom(env);
  EXPECT_EQ(dom.run_production_script(), extract_final(env));
}

TEST(SimulatedDom, PropertyTableSizesMatchValues) {
  Environment env = make_env(ua::Vendor::kFirefox, 108, 0, 3);
  SimulatedDom dom(env);
  const auto values = extract_candidates(env);
  const std::size_t element = element_index();
  EXPECT_EQ(dom.own_property_names(element).size(),
            static_cast<std::size_t>(values[element]));
}

}  // namespace
}  // namespace bp::browser
