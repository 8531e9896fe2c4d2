// Observability-layer tests: registry registration/lookup semantics,
// snapshot-at-unregistration, JSON export schema, time-series sampler
// windowing under an injected clock, trace-ring wraparound, and a
// concurrency hammer (increment + snapshot + record) meant to run under
// TSan.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics_io.h"
#include "obs/metrics_registry.h"
#include "obs/time_series_sampler.h"
#include "obs/trace_ring.h"

namespace btrim {
namespace obs {
namespace {

// --- registry ---------------------------------------------------------------

TEST(MetricsRegistryTest, RegisterLookupRoundTrip) {
  MetricsRegistry registry;
  ShardedCounter counter;
  AtomicGauge gauge;
  LatencyHistogram hist;
  MetricLabels labels{"wal", "", "", ""};

  ASSERT_TRUE(registry.RegisterCounter("wal.syncs", labels, &counter).ok());
  ASSERT_TRUE(registry.RegisterGauge("wal.depth", labels, &gauge).ok());
  ASSERT_TRUE(registry.RegisterHistogram("wal.latency_us", labels, &hist).ok());
  ASSERT_TRUE(registry
                  .RegisterGaugeFn("wal.derived", labels,
                                   [] { return int64_t{41}; })
                  .ok());
  EXPECT_EQ(registry.size(), 4u);

  counter.Add(3);
  gauge.Set(-7);
  hist.Record(100);
  hist.Record(100);

  MetricSample sample;
  ASSERT_TRUE(registry.Lookup("wal.syncs", labels, &sample));
  EXPECT_EQ(sample.type, MetricType::kCounter);
  EXPECT_EQ(sample.value, 3);
  EXPECT_FALSE(sample.retained);
  ASSERT_TRUE(registry.Lookup("wal.depth", labels, &sample));
  EXPECT_EQ(sample.value, -7);
  ASSERT_TRUE(registry.Lookup("wal.latency_us", labels, &sample));
  EXPECT_EQ(sample.type, MetricType::kHistogram);
  EXPECT_EQ(sample.value, 2);  // histograms report the sample count
  ASSERT_TRUE(registry.Lookup("wal.derived", labels, &sample));
  EXPECT_EQ(sample.value, 41);

  EXPECT_FALSE(registry.Lookup("wal.nope", labels, &sample));
  EXPECT_FALSE(registry.Lookup("wal.syncs", MetricLabels{"page", "", "", ""},
                               &sample));
}

TEST(MetricsRegistryTest, DoubleRegisterIsAlreadyExists) {
  MetricsRegistry registry;
  ShardedCounter a, b;
  MetricLabels labels{"wal", "", "", ""};
  ASSERT_TRUE(registry.RegisterCounter("wal.syncs", labels, &a).ok());
  Status dup = registry.RegisterCounter("wal.syncs", labels, &b);
  EXPECT_TRUE(dup.IsAlreadyExists()) << dup.ToString();

  // Same name under different labels is a distinct metric.
  EXPECT_TRUE(registry
                  .RegisterCounter("wal.syncs", MetricLabels{"imrs", "", "", ""},
                                   &b)
                  .ok());
}

TEST(MetricsRegistryTest, UnregisterRetainsFinalValue) {
  MetricsRegistry registry;
  MetricLabels labels{"ilm", "orders", "0", ""};
  {
    ShardedCounter counter;
    ASSERT_TRUE(
        registry.RegisterCounter("partition.rows_packed", labels, &counter)
            .ok());
    counter.Add(17);
    registry.Unregister("partition.rows_packed", labels);
    // `counter` dies here; the registry must not touch it again.
  }
  MetricSample sample;
  ASSERT_TRUE(registry.Lookup("partition.rows_packed", labels, &sample));
  EXPECT_TRUE(sample.retained);
  EXPECT_EQ(sample.value, 17);

  // Registering over a retained entry replaces it with a live one.
  ShardedCounter fresh;
  ASSERT_TRUE(
      registry.RegisterCounter("partition.rows_packed", labels, &fresh).ok());
  ASSERT_TRUE(registry.Lookup("partition.rows_packed", labels, &sample));
  EXPECT_FALSE(sample.retained);
  EXPECT_EQ(sample.value, 0);
}

TEST(MetricsRegistryTest, UnregisterMatchingUsesWildcards) {
  MetricsRegistry registry;
  ShardedCounter c0, c1, other;
  ASSERT_TRUE(registry
                  .RegisterCounter("partition.rows_packed",
                                   MetricLabels{"ilm", "orders", "0", ""}, &c0)
                  .ok());
  ASSERT_TRUE(registry
                  .RegisterCounter("partition.imrs_rows",
                                   MetricLabels{"ilm", "orders", "0", ""}, &c1)
                  .ok());
  ASSERT_TRUE(registry
                  .RegisterCounter("partition.rows_packed",
                                   MetricLabels{"ilm", "orders", "1", ""}, &other)
                  .ok());
  c0.Add(5);

  MetricLabels match;
  match.table = "orders";
  match.partition = "0";
  registry.UnregisterMatching(match);

  MetricSample sample;
  ASSERT_TRUE(registry.Lookup("partition.rows_packed",
                              MetricLabels{"ilm", "orders", "0", ""}, &sample));
  EXPECT_TRUE(sample.retained);
  EXPECT_EQ(sample.value, 5);
  ASSERT_TRUE(registry.Lookup("partition.imrs_rows",
                              MetricLabels{"ilm", "orders", "0", ""}, &sample));
  EXPECT_TRUE(sample.retained);
  // The sibling partition stays live.
  ASSERT_TRUE(registry.Lookup("partition.rows_packed",
                              MetricLabels{"ilm", "orders", "1", ""}, &sample));
  EXPECT_FALSE(sample.retained);
}

TEST(MetricsRegistryTest, ValueSumsMatchingCountersAndGauges) {
  MetricsRegistry registry;
  ShardedCounter orders0, orders1, stock0, longer_name;
  AtomicGauge gauge;
  LatencyHistogram hist;
  ASSERT_TRUE(registry
                  .RegisterCounter("partition.rows_packed",
                                   {"ilm", "orders", "0", ""}, &orders0)
                  .ok());
  ASSERT_TRUE(registry
                  .RegisterCounter("partition.rows_packed",
                                   {"ilm", "orders", "1", ""}, &orders1)
                  .ok());
  ASSERT_TRUE(registry
                  .RegisterCounter("partition.rows_packed",
                                   {"ilm", "stock", "0", ""}, &stock0)
                  .ok());
  // A name that merely starts with the queried one is a different metric.
  ASSERT_TRUE(registry
                  .RegisterCounter("partition.rows_packed_total",
                                   {"ilm", "orders", "0", ""}, &longer_name)
                  .ok());
  ASSERT_TRUE(
      registry.RegisterGauge("imrs_cache.in_use_bytes", {"imrs"}, &gauge).ok());
  // Histograms are read through Lookup, never summed.
  ASSERT_TRUE(registry
                  .RegisterHistogram("partition.rows_packed",
                                     {"ilm", "orders", "9", ""}, &hist)
                  .ok());
  orders0.Add(5);
  orders1.Add(7);
  stock0.Add(11);
  longer_name.Add(1000);
  gauge.Set(-3);
  hist.Record(10);

  // Wildcard sum across tables and partitions.
  EXPECT_EQ(registry.Value("partition.rows_packed"), 23);
  EXPECT_EQ(registry.Value("partition.rows_packed", {.table = "orders"}), 12);
  EXPECT_EQ(registry.Value("partition.rows_packed", {.partition = "0"}), 16);
  // Exact label match.
  EXPECT_EQ(registry.Value("partition.rows_packed", {"ilm", "stock", "0", ""}),
            11);
  EXPECT_EQ(registry.Value("imrs_cache.in_use_bytes", {"imrs"}), -3);

  // Retired entries keep counting with their final value.
  registry.UnregisterMatching({.table = "orders", .partition = "1"});
  orders1.Add(100);  // the source is no longer read
  EXPECT_EQ(registry.Value("partition.rows_packed", {.table = "orders"}), 12);
  EXPECT_EQ(registry.Value("partition.rows_packed"), 23);

  // Absent names, and labels nothing carries, read 0.
  EXPECT_EQ(registry.Value("partition.nope"), 0);
  EXPECT_EQ(registry.Value("partition.rows_packed", {.table = "item"}), 0);
}

TEST(MetricsRegistryTest, SnapshotIsDeterministicallyOrdered) {
  MetricsRegistry registry;
  ShardedCounter a, b, c;
  ASSERT_TRUE(
      registry.RegisterCounter("z.last", MetricLabels{"s", "", "", ""}, &a).ok());
  ASSERT_TRUE(
      registry.RegisterCounter("a.first", MetricLabels{"s", "", "", ""}, &b).ok());
  ASSERT_TRUE(
      registry.RegisterCounter("m.mid", MetricLabels{"s", "", "", ""}, &c).ok());
  std::vector<MetricSample> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.first");
  EXPECT_EQ(snap[1].name, "m.mid");
  EXPECT_EQ(snap[2].name, "z.last");
}

// --- JSON export ------------------------------------------------------------

TEST(MetricsJsonTest, ExportSchemaRoundTrip) {
  MetricsRegistry registry;
  ShardedCounter counter;
  LatencyHistogram hist;
  ASSERT_TRUE(registry
                  .RegisterCounter("pack.cycles",
                                   MetricLabels{"ilm", "orders", "0", ""},
                                   &counter)
                  .ok());
  ASSERT_TRUE(registry
                  .RegisterHistogram("commit.latency_us",
                                     MetricLabels{"syslogs", "", "", ""}, &hist)
                  .ok());
  counter.Add(9);
  hist.Record(64);

  const std::string json = registry.ToJson();
  // The stable schema: name, type, labels{subsystem,table,partition}, value.
  EXPECT_NE(json.find("\"name\": \"pack.cycles\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"type\": \"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"subsystem\": \"ilm\""), std::string::npos);
  EXPECT_NE(json.find("\"table\": \"orders\""), std::string::npos);
  EXPECT_NE(json.find("\"partition\": \"0\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);

  // String escaping survives hostile label content.
  std::string out;
  AppendJsonString(&out, "he said \"hi\"\n");
  EXPECT_EQ(out, "\"he said \\\"hi\\\"\\n\"");
}

TEST(MetricsJsonTest, MetricsDocumentCombinesMetaRegistryAndSeries) {
  MetricsRegistry registry;
  ShardedCounter counter;
  ASSERT_TRUE(registry
                  .RegisterCounter("txn.committed", MetricLabels{"txn", "", "", ""},
                                   &counter)
                  .ok());
  TimeSeriesSampler sampler(&registry, {});
  sampler.SampleNow(500);

  const std::string doc = BuildMetricsDocument(
      {{"bench", "tpcc", false}, {"committed", "500", true}}, registry,
      &sampler);
  EXPECT_NE(doc.find("\"bench\": \"tpcc\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"committed\": 500"), std::string::npos);
  EXPECT_NE(doc.find("\"metrics\": "), std::string::npos);
  EXPECT_NE(doc.find("\"series\": "), std::string::npos);
  EXPECT_NE(doc.find("\"marker\": 500"), std::string::npos);
}

// --- time-series sampler ----------------------------------------------------

TEST(TimeSeriesSamplerTest, WindowingIsDeterministicUnderFakeClock) {
  MetricsRegistry registry;
  ShardedCounter committed;
  ASSERT_TRUE(registry
                  .RegisterCounter("txn.committed", MetricLabels{"txn", "", "", ""},
                                   &committed)
                  .ok());
  TimeSeriesSampler sampler(&registry, {});
  int64_t fake_now = 0;
  sampler.SetClockForTest([&fake_now] { return fake_now; });

  for (int window = 1; window <= 3; ++window) {
    committed.Add(1000);
    fake_now = window * 250000;
    EXPECT_EQ(sampler.SampleNow(window * 1000), window - 1);
  }

  std::vector<TimeSeriesSampler::Sample> samples = sampler.Samples();
  ASSERT_EQ(samples.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(samples[i].seq, i);
    EXPECT_EQ(samples[i].wall_us, (i + 1) * 250000);
    EXPECT_EQ(samples[i].marker, (i + 1) * 1000);
    ASSERT_EQ(samples[i].metrics.size(), 1u);
    EXPECT_EQ(samples[i].metrics[0].value, (i + 1) * 1000);
  }
}

TEST(TimeSeriesSamplerTest, RingKeepsNewestCapacitySamples) {
  MetricsRegistry registry;
  TimeSeriesSampler::Options options;
  options.capacity = 4;
  TimeSeriesSampler sampler(&registry, options);
  for (int i = 0; i < 10; ++i) sampler.SampleNow(i);

  std::vector<TimeSeriesSampler::Sample> samples = sampler.Samples();
  ASSERT_EQ(samples.size(), 4u);  // oldest windows dropped off
  EXPECT_EQ(sampler.total_samples(), 10);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(samples[i].seq, 6 + i);  // oldest first
    EXPECT_EQ(samples[i].marker, 6 + i);
  }
}

// --- trace ring -------------------------------------------------------------

TEST(TraceRingTest, WraparoundKeepsNewestEvents) {
  TraceRing ring(8);  // rounded to a power of two
  for (int i = 0; i < 30; ++i) {
    ring.RecordAt("evt", "test", /*ts_us=*/i, /*dur_us=*/1, /*arg1=*/i);
  }
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(ring.total_recorded(), 30);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg1, 22 + static_cast<int64_t>(i));  // newest 8
  }

  const std::string json = ring.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"evt\""), std::string::npos);

  ring.Reset();
  EXPECT_TRUE(ring.Snapshot().empty());
}

TEST(TraceRingTest, SpanRecordsItsLifetime) {
  TraceRing ring(16);
  {
    TraceSpan span(&ring, "checkpoint", "engine");
    span.set_args(3, 4);
  }
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "checkpoint");
  EXPECT_EQ(events[0].arg1, 3);
  EXPECT_EQ(events[0].arg2, 4);
  EXPECT_GE(events[0].dur_us, 0);
}

// --- concurrency hammer (run under TSan) ------------------------------------

TEST(ObservabilityConcurrencyTest, IncrementSnapshotRecordHammer) {
  MetricsRegistry registry;
  ShardedCounter counters[4];
  LatencyHistogram hist;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(registry
                    .RegisterCounter("hammer.c" + std::to_string(i),
                                     MetricLabels{"test", "", "", ""},
                                     &counters[i])
                    .ok());
  }
  ASSERT_TRUE(registry
                  .RegisterHistogram("hammer.lat",
                                     MetricLabels{"test", "", "", ""}, &hist)
                  .ok());
  TimeSeriesSampler sampler(&registry, {});
  TraceRing ring(64);

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        counters[t].Add(1);
        hist.Record(i & 1023);
        ring.Record("hammer", "test", /*dur_us=*/1, /*arg1=*/i);
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)registry.Snapshot();
      (void)sampler.SampleNow(-1);
      (void)ring.Snapshot();
      (void)registry.ToJson();
    }
  });
  for (auto& th : threads) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // Quiescent totals are exact.
  int64_t total = 0;
  for (const MetricSample& s : registry.Snapshot()) {
    if (s.name.rfind("hammer.c", 0) == 0) total += s.value;
  }
  EXPECT_EQ(total, int64_t{kWriters} * kOpsPerWriter);
  EXPECT_EQ(ring.total_recorded(), int64_t{kWriters} * kOpsPerWriter);
}

}  // namespace
}  // namespace obs
}  // namespace btrim
