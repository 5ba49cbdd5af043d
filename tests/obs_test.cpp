// Unit gate for the observability subsystem: registry folds, the
// journal's canonical per-step ordering and ring bound, sink sampling
// and merge, the scoped phase timers (on the deterministic fake clock),
// and the three exporters. Structure-level tests run even under
// -DPRAMSIM_OBS=OFF (the API stays linkable); only the tests that need
// live hooks skip there.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/schemes.hpp"
#include "faults/fault_model.hpp"
#include "obs/export.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "obs/sink.hpp"
#include "util/stopwatch.hpp"

namespace pramsim {
namespace {

struct FakeClockGuard {
  ~FakeClockGuard() { util::clear_fake_clock_override(); }
};

TEST(ObsRegistry, HistogramBucketsAreLog2) {
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(obs::Histogram::bucket_floor(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_floor(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_floor(11), 1024u);
  // Every value lands in the bucket whose floor is <= it.
  for (const std::uint64_t v : {0ull, 1ull, 7ull, 63ull, 64ull, 12345ull}) {
    const auto b = obs::Histogram::bucket_of(v);
    EXPECT_LE(obs::Histogram::bucket_floor(b), v);
    if (b + 1 < obs::kHistogramBuckets) {
      EXPECT_LT(v, obs::Histogram::bucket_floor(b + 1));
    }
  }
}

TEST(ObsRegistry, CountersGaugesHistogramsAccumulateAndMerge) {
  obs::Registry a;
  a.add("serve.steps");
  a.add("serve.steps", 4);
  a.set_gauge("load.alpha", 0.5);
  a.observe("serve.batch", 8);
  a.observe("serve.batch", 9);

  obs::Registry b;
  b.add("serve.steps", 2);
  b.add("scrub.passes");
  b.set_gauge("load.alpha", 0.75);
  b.observe("serve.batch", 1024);

  a.merge(b);
  EXPECT_EQ(a.counters().at("serve.steps"), 7u);
  EXPECT_EQ(a.counters().at("scrub.passes"), 1u);
  EXPECT_DOUBLE_EQ(a.gauges().at("load.alpha"), 0.75);  // last writer
  const auto& h = a.histograms().at("serve.batch");
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 8u + 9u + 1024u);
  EXPECT_EQ(h.min, 8u);
  EXPECT_EQ(h.max, 1024u);
  // 8 and 9 share the [8, 16) bucket.
  EXPECT_EQ(h.buckets[obs::Histogram::bucket_of(8)], 2u);
  EXPECT_EQ(h.buckets[obs::Histogram::bucket_of(1024)], 1u);
}

TEST(ObsJournal, EventsWithinAStepCommitInCanonicalOrder) {
  obs::Journal journal;
  // Step 3, appended in "worker" order that differs from canonical.
  journal.append(3, obs::EventKind::kRelocation, /*entity=*/9);
  journal.append(3, obs::EventKind::kDegradedVote, /*entity=*/5);
  journal.append(3, obs::EventKind::kDegradedVote, /*entity=*/2);
  // Next step forces the pending buffer to commit.
  journal.append(4, obs::EventKind::kScrubRepair, /*entity=*/1);
  journal.flush();

  const auto events = journal.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kDegradedVote);
  EXPECT_EQ(events[0].entity, 2u);
  EXPECT_EQ(events[1].kind, obs::EventKind::kDegradedVote);
  EXPECT_EQ(events[1].entity, 5u);
  EXPECT_EQ(events[2].kind, obs::EventKind::kRelocation);
  EXPECT_EQ(events[2].entity, 9u);
  EXPECT_EQ(events[3].step, 4u);  // step order preserved across commits
}

TEST(ObsJournal, RingKeepsTheLastCapacityEvents) {
  obs::Journal journal(/*capacity=*/8);
  for (std::uint64_t step = 1; step <= 100; ++step) {
    journal.append(step, obs::EventKind::kWrongRead, step);
  }
  journal.flush();
  EXPECT_EQ(journal.recorded(), 100u);
  EXPECT_EQ(journal.dropped(), 92u);
  const auto events = journal.events();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().step, 93u);  // oldest surviving
  EXPECT_EQ(events.back().step, 100u);
}

TEST(ObsJournal, MergeConcatenatesAndReTrims) {
  obs::Journal a(/*capacity=*/4);
  a.append(1, obs::EventKind::kFaultOnset, 7);
  obs::Journal b(/*capacity=*/4);
  for (std::uint64_t step = 2; step <= 6; ++step) {
    b.append(step, obs::EventKind::kScrubRepair, step);
  }
  a.merge(b);  // merge handles b's unflushed pending buffer
  a.flush();
  EXPECT_EQ(a.recorded(), 6u);
  EXPECT_EQ(a.dropped(), 2u);
  const auto events = a.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().step, 3u);
  EXPECT_EQ(events.back().step, 6u);
}

TEST(ObsSink, SamplingIntervalGatesPhaseTimers) {
  const obs::Sink every{obs::SinkOptions{.sample_interval = 1}};
  EXPECT_TRUE(every.sample(1));
  EXPECT_TRUE(every.sample(2));
  const obs::Sink fourth{obs::SinkOptions{.sample_interval = 4}};
  EXPECT_FALSE(fourth.sample(1));
  EXPECT_TRUE(fourth.sample(4));
  EXPECT_TRUE(fourth.sample(8));
  const obs::Sink never{obs::SinkOptions{.sample_interval = 0}};
  EXPECT_FALSE(never.sample(1));
  EXPECT_FALSE(never.sample(0));
}

TEST(ObsSink, MergeFoldsAllThreeComponents) {
  obs::Sink a;
  a.metrics.add("serve.steps", 3);
  a.phases.record(obs::Phase::kServe, 100);
  a.journal.append(1, obs::EventKind::kRehash, 1);

  obs::Sink b;
  b.metrics.add("serve.steps", 2);
  b.phases.record(obs::Phase::kServe, 50);
  b.journal.append(2, obs::EventKind::kRehash, 2);

  a.merge(b);
  a.journal.flush();
  EXPECT_EQ(a.metrics.counters().at("serve.steps"), 5u);
  EXPECT_EQ(a.phases[obs::Phase::kServe].count, 2u);
  EXPECT_EQ(a.journal.events().size(), 2u);
  EXPECT_FALSE(a.empty());
  EXPECT_TRUE(obs::Sink{}.empty());
}

TEST(ObsPhase, ScopedPhaseRecordsOnTheFakeClock) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "compiled with PRAMSIM_OBS=OFF";
  }
  FakeClockGuard guard;
  util::set_fake_clock_override(/*start_ns=*/1000, /*tick_ns=*/25);
  obs::PhaseSet set;
  {
    obs::ScopedPhase timer(&set, obs::Phase::kDecode);
  }
  // Two clock queries (construct + destruct), one tick apart.
  EXPECT_EQ(set[obs::Phase::kDecode].count, 1u);
  EXPECT_EQ(set[obs::Phase::kDecode].total_ns, 25u);
  {
    obs::ScopedPhase inert(nullptr, obs::Phase::kDecode);
  }
  // A null set reads the clock zero times: the next timed scope still
  // sees exactly one tick of elapsed fake time.
  {
    obs::ScopedPhase timer(&set, obs::Phase::kDecode);
  }
  EXPECT_EQ(set[obs::Phase::kDecode].count, 2u);
  EXPECT_EQ(set[obs::Phase::kDecode].total_ns, 50u);
}

TEST(ObsExport, JsonSnapshotCarriesSchemaAndSections) {
  obs::Sink sink;
  sink.metrics.add("serve.steps", 3);
  sink.metrics.set_gauge("load.alpha", 0.5);
  sink.metrics.observe("serve.batch", 16);
  sink.phases.record(obs::Phase::kServe, 100);
  sink.journal.append(1, obs::EventKind::kFaultOnset, 7, 0, 1);

  const std::string json = obs::to_json(sink);
  EXPECT_NE(json.find("\"obs_schema_version\": " +
                      std::to_string(obs::kObsSchemaVersion)),
            std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"serve.steps\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"journal\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"fault_onset\""), std::string::npos);
  EXPECT_NE(json.find("\"manifest\": null"), std::string::npos);

  // Embedded manifest replaces the null.
  obs::SnapshotOptions with_manifest;
  with_manifest.manifest_json = "{\"seed\": 7}";
  const std::string json2 = obs::to_json(sink, with_manifest);
  EXPECT_NE(json2.find("\"manifest\": {\"seed\": 7}"), std::string::npos);

  // The deterministic form drops the wall-clock nanosecond fields but
  // keeps phase counts.
  obs::SnapshotOptions deterministic;
  deterministic.include_timings = false;
  const std::string json3 = obs::to_json(sink, deterministic);
  EXPECT_EQ(json3.find("total_ns"), std::string::npos);
  EXPECT_NE(json3.find("\"phases\""), std::string::npos);
}

TEST(ObsExport, PrometheusExpositionNamesArePromified) {
  obs::Sink sink;
  sink.metrics.add("serve.steps", 3);
  sink.phases.record(obs::Phase::kScrub, 42);
  const std::string text = obs::to_prometheus(sink);
  EXPECT_NE(text.find("pramsim_serve_steps 3"), std::string::npos);
  EXPECT_NE(text.find("pramsim_phase_scrub_count 1"), std::string::npos);
  EXPECT_NE(text.find("pramsim_journal_recorded 0"), std::string::npos);
}

TEST(ObsExport, TablesRenderCountersPhasesAndJournalTail) {
  obs::Sink sink;
  sink.metrics.add("serve.steps", 3);
  sink.phases.record(obs::Phase::kServe, 100);
  sink.journal.append(1, obs::EventKind::kRehash, 1);
  const auto tables = obs::to_tables(sink);
  ASSERT_EQ(tables.size(), 3u);
  for (const auto& table : tables) {
    EXPECT_FALSE(table.to_string(2).empty());
  }
}

// ----- hooks through the pipeline --------------------------------------

TEST(ObsPipeline, StressRunCapturesMetricsAndJournal) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "compiled with PRAMSIM_OBS=OFF";
  }
  core::SimulationPipeline pipeline(
      {.kind = core::SchemeKind::kDmmpc, .n = 16, .seed = 3});
  const faults::FaultSpec fault_spec{.seed = 41, .module_kill_rate = 0.3};
  core::StressOptions options{.steps_per_family = 4, .seed = 9, .trials = 2};
  options.scrub_interval = 2;
  options.scrub_budget = 64;
  options.obs = obs::SinkOptions{};
  const auto run = pipeline.run_with_faults(fault_spec, options);

  EXPECT_GT(run.obs.metrics.counters().at("majority.steps"), 0u);
  EXPECT_GT(run.obs.metrics.counters().at("fault.onsets"), 0u);
  EXPECT_GT(run.obs.metrics.counters().at("scrub.passes"), 0u);
  EXPECT_GT(run.obs.phases[obs::Phase::kServe].count, 0u);
  EXPECT_GT(run.obs.phases[obs::Phase::kPlanBuild].count, 0u);
  EXPECT_GT(run.obs.journal.events().size(), 0u);
  bool saw_onset = false;
  for (const auto& event : run.obs.journal.events()) {
    saw_onset |= event.kind == obs::EventKind::kFaultOnset;
  }
  EXPECT_TRUE(saw_onset);

  // Detached runs stay observability-free.
  options.obs = std::nullopt;
  const auto plain = pipeline.run_with_faults(fault_spec, options);
  EXPECT_TRUE(plain.obs.empty());
}

TEST(ObsPipeline, SampleIntervalZeroKeepsCountersButNoTimers) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "compiled with PRAMSIM_OBS=OFF";
  }
  core::SimulationPipeline pipeline(
      {.kind = core::SchemeKind::kHashed, .n = 16, .seed = 3});
  core::StressOptions options{.steps_per_family = 4, .seed = 9};
  options.obs = obs::SinkOptions{.sample_interval = 0};
  const auto run = pipeline.run_stress(options);
  EXPECT_GT(run.obs.metrics.counters().at("hashed.steps"), 0u);
  EXPECT_TRUE(run.obs.phases.empty());
}

}  // namespace
}  // namespace pramsim
