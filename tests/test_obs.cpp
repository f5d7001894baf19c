// tnb::obs — metric primitives, registry semantics, both exporters, and
// the pinned JSON schemas of the receiver/streaming stats lines.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "core/receiver.hpp"
#include "fleet/fleet.hpp"
#include "obs/json.hpp"
#include "obs/stage_timer.hpp"
#include "stream/streaming_receiver.hpp"

namespace tnb::obs {
namespace {

TEST(Counter, IncAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAddUpdateMax) {
  Gauge g;
  g.set(-5);
  EXPECT_EQ(g.value(), -5);
  g.add(15);
  EXPECT_EQ(g.value(), 10);
  g.update_max(7);  // smaller: no effect
  EXPECT_EQ(g.value(), 10);
  g.update_max(12);
  EXPECT_EQ(g.value(), 12);
}

TEST(Histogram, BucketsCountSum) {
  const double bounds[] = {1.0, 10.0, 100.0};
  Histogram h{std::span<const double>(bounds)};
  h.observe(0.5);    // bucket 0 (le 1)
  h.observe(1.0);    // bucket 0 (le is inclusive)
  h.observe(5.0);    // bucket 1
  h.observe(1000.0); // +Inf bucket
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 0u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
}

TEST(Histogram, RejectsNonIncreasingBounds) {
  const double bad[] = {1.0, 1.0, 2.0};
  EXPECT_THROW(Histogram{std::span<const double>(bad)}, std::invalid_argument);
  const double empty[] = {1.0};
  EXPECT_NO_THROW(Histogram{std::span<const double>(empty, 1)});
}

TEST(NullRefs, AreInertAndCheap) {
  CounterRef c;
  GaugeRef g;
  HistogramRef h;
  EXPECT_FALSE(c.enabled());
  EXPECT_FALSE(g.enabled());
  EXPECT_FALSE(h.enabled());
  c.inc(5);
  g.set(5);
  g.update_max(9);
  h.observe(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
}

TEST(Registry, SameNameAndLabelsSharesTheMetric) {
  Registry reg;
  CounterRef a = reg.counter("hits", "help");
  CounterRef b = reg.counter("hits");
  a.inc(2);
  b.inc(3);
  EXPECT_EQ(a.value(), 5u);
  // Different labels: a distinct series.
  CounterRef c = reg.counter("hits", "", {{"kind", "x"}});
  c.inc();
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(c.value(), 1u);
}

TEST(Registry, KindConflictThrows) {
  Registry reg;
  reg.counter("m");
  EXPECT_THROW(reg.gauge("m"), std::invalid_argument);
  const double bounds[] = {1.0};
  EXPECT_THROW(reg.histogram("m", bounds), std::invalid_argument);
  // Same histogram name with different bounds is also a conflict.
  const double b1[] = {1.0, 2.0};
  const double b2[] = {1.0, 3.0};
  reg.histogram("h", b1);
  EXPECT_NO_THROW(reg.histogram("h", b1));
  EXPECT_THROW(reg.histogram("h", b2), std::invalid_argument);
}

TEST(Registry, SnapshotIsSortedAndFindable) {
  Registry reg;
  reg.counter("z_last").inc(1);
  reg.gauge("a_first").set(7);
  reg.counter("mid", "", {{"s", "b"}}).inc(2);
  reg.counter("mid", "", {{"s", "a"}}).inc(3);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 4u);
  EXPECT_EQ(snap.metrics[0].name, "a_first");
  EXPECT_EQ(snap.metrics[1].name, "mid");
  EXPECT_EQ(snap.metrics[1].labels, (Labels{{"s", "a"}}));
  EXPECT_EQ(snap.metrics[2].labels, (Labels{{"s", "b"}}));
  EXPECT_EQ(snap.metrics[3].name, "z_last");

  const Snapshot::Metric* m = snap.find("mid", {{"s", "b"}});
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->value, 2.0);
  EXPECT_EQ(snap.find("nope"), nullptr);
}

TEST(Registry, GlobalDefaultsToNullAndResolves) {
  ASSERT_EQ(Registry::global(), nullptr) << "another test leaked the global";
  Registry reg;
  EXPECT_EQ(resolve(&reg), &reg);
  EXPECT_EQ(resolve(nullptr), nullptr);
  Registry::set_global(&reg);
  EXPECT_EQ(resolve(nullptr), &reg);
  Registry other;
  EXPECT_EQ(resolve(&other), &other);  // explicit beats global
  Registry::set_global(nullptr);
  EXPECT_EQ(resolve(nullptr), nullptr);
}

TEST(Exposition, PrometheusTextFormat) {
  Registry reg;
  reg.counter("tnb_events_total", "Things that happened").inc(3);
  reg.gauge("tnb_depth", "Queue depth").set(-2);
  const double bounds[] = {0.5, 1.0};
  HistogramRef h = reg.histogram("tnb_lat_seconds", bounds, "Latency",
                                 {{"stage", "x"}});
  // Binary-exact values so the pinned _sum text is stable.
  h.observe(0.25);
  h.observe(0.75);
  h.observe(2.0);
  const std::string text = reg.snapshot().to_prometheus();
  const std::string expected =
      "# HELP tnb_depth Queue depth\n"
      "# TYPE tnb_depth gauge\n"
      "tnb_depth -2\n"
      "# HELP tnb_events_total Things that happened\n"
      "# TYPE tnb_events_total counter\n"
      "tnb_events_total 3\n"
      "# HELP tnb_lat_seconds Latency\n"
      "# TYPE tnb_lat_seconds histogram\n"
      "tnb_lat_seconds_bucket{stage=\"x\",le=\"0.5\"} 1\n"
      "tnb_lat_seconds_bucket{stage=\"x\",le=\"1\"} 2\n"
      "tnb_lat_seconds_bucket{stage=\"x\",le=\"+Inf\"} 3\n"
      "tnb_lat_seconds_sum{stage=\"x\"} 3\n"
      "tnb_lat_seconds_count{stage=\"x\"} 3\n";
  EXPECT_EQ(text, expected);
}

TEST(Exposition, HelpAndTypeOncePerLabeledFamily) {
  Registry reg;
  reg.counter("fam", "h", {{"k", "a"}}).inc(1);
  reg.counter("fam", "h", {{"k", "b"}}).inc(2);
  const std::string text = reg.snapshot().to_prometheus();
  EXPECT_EQ(text.find("# HELP fam"), text.rfind("# HELP fam"));
  EXPECT_EQ(text.find("# TYPE fam"), text.rfind("# TYPE fam"));
  EXPECT_NE(text.find("fam{k=\"a\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("fam{k=\"b\"} 2\n"), std::string::npos);
}

TEST(Quantile, InterpolatesWithinBucket) {
  Registry reg;
  const double bounds[] = {10.0, 20.0, 40.0};
  HistogramRef h = reg.histogram("q", bounds);
  // 10 observations in (0,10], 10 in (10,20].
  for (int i = 0; i < 10; ++i) h.observe(5.0);
  for (int i = 0; i < 10; ++i) h.observe(15.0);
  const Snapshot snap = reg.snapshot();
  const Snapshot::Metric* m = snap.find("q");
  ASSERT_NE(m, nullptr);
  // p50 sits exactly at the first bucket's upper bound.
  EXPECT_NEAR(histogram_quantile(*m, 0.5), 10.0, 1e-9);
  // p75 is halfway through the second bucket: 10 + 0.5 * (20 - 10).
  EXPECT_NEAR(histogram_quantile(*m, 0.75), 15.0, 1e-9);
  EXPECT_NEAR(histogram_quantile(*m, 1.0), 20.0, 1e-9);
}

TEST(Quantile, EmptyIsNaNAndOverflowClampsToLastBound) {
  Registry reg;
  const double bounds[] = {1.0, 2.0};
  HistogramRef h = reg.histogram("q", bounds);
  {
    const Snapshot snap = reg.snapshot();
    const Snapshot::Metric* m = snap.find("q");
    ASSERT_NE(m, nullptr);
    EXPECT_TRUE(std::isnan(histogram_quantile(*m, 0.5)));
    EXPECT_EQ(histogram_summary(*m), "n=0");
  }
  h.observe(100.0);  // lands in +Inf, clamps to the last finite bound
  const Snapshot snap = reg.snapshot();
  const Snapshot::Metric* m = snap.find("q");
  EXPECT_NEAR(histogram_quantile(*m, 0.5), 2.0, 1e-9);
  EXPECT_EQ(histogram_summary(*m), "n=1 mean=100 p50=2 p99=2");
}

TEST(JsonWriter, EscapesAndFormats) {
  JsonWriter w;
  w.begin_object();
  w.field("s", "a\"b\\c\nd");
  w.field("t", true);
  w.field("f", 1.5);
  w.field("n", std::nan(""));
  w.key("arr").begin_array().value(std::uint64_t{1}).value(std::int64_t{-2})
      .end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"t\":true,\"f\":1.5,\"n\":null,"
            "\"arr\":[1,-2]}");
}

TEST(StageTimer, RegistersAllSevenStagesEagerly) {
  Registry reg;
  StageTimer timer = StageTimer::for_registry(&reg);
  (void)timer;
  const Snapshot snap = reg.snapshot();
  for (const char* stage :
       {kStageDetect, kStageFracSync, kStageSigCalc, kStageAssign,
        kStageHeader, kStageBec, kStageSecondPass}) {
    const Snapshot::Metric* m =
        snap.find(kStageMetricName, {{"stage", stage}});
    ASSERT_NE(m, nullptr) << stage;
    EXPECT_EQ(m->count, 0u);
  }
  // Null registry: all handles inert.
  StageTimer off = StageTimer::for_registry(nullptr);
  EXPECT_FALSE(off.detect.enabled());
  {
    const ScopedSpan span(off.detect);  // must not touch the clock or crash
  }
  EXPECT_EQ(off.detect.count(), 0u);
}

TEST(ScopedSpan, RecordsOneObservationPerScope) {
  Registry reg;
  HistogramRef h = reg.histogram("span_seconds", duration_bounds());
  {
    ScopedSpan span(h);
  }
  {
    ScopedSpan span(h);
    span.stop();
    span.stop();  // idempotent
  }
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GE(h.sum(), 0.0);
}

// ---- pinned stats-line schemas (satellite: one schema for tnb_eval and
// tnb_streamd; changing a field name or dropping one breaks this test) ----

TEST(ReceiverStatsJson, SchemaIsPinned) {
  rx::ReceiverStats st;
  st.detected = 9;
  st.header_ok = 8;
  st.crc_ok = 7;
  st.decoded_first_pass = 6;
  st.decoded_second_pass = 1;
  st.bec.delta_prime = 11;
  st.bec.delta1 = 12;
  st.bec.delta2 = 13;
  st.bec.delta3 = 14;
  st.bec.crc_checks = 15;
  st.bec.blocks_no_repair = 16;
  st.bec.candidate_blocks = 17;
  st.rescued_per_packet = {2, 0, 3};  // length 3, sum 5
  EXPECT_EQ(st.to_json(),
            "{\"detected\":9,\"header_ok\":8,\"crc_ok\":7,"
            "\"decoded_first_pass\":6,\"decoded_second_pass\":1,"
            "\"bec\":{\"delta_prime\":11,\"delta1\":12,\"delta2\":13,"
            "\"delta3\":14,\"crc_checks\":15,\"blocks_no_repair\":16,"
            "\"candidate_blocks\":17},"
            "\"rescued_packets\":3,\"rescued_codewords\":5}");
}

TEST(ReceiverStatsMerge, AddsCountersAndConcatenatesRescues) {
  rx::ReceiverStats a;
  a.detected = 3;
  a.crc_ok = 2;
  a.bec.delta1 = 4;
  a.rescued_per_packet = {1, 2};
  rx::ReceiverStats b;
  b.detected = 10;
  b.header_ok = 5;
  b.bec.delta1 = 6;
  b.rescued_per_packet = {7};
  a += b;
  EXPECT_EQ(a.detected, 13u);
  EXPECT_EQ(a.header_ok, 5u);
  EXPECT_EQ(a.crc_ok, 2u);
  EXPECT_EQ(a.bec.delta1, 10u);
  EXPECT_EQ(a.rescued_per_packet, (std::vector<std::size_t>{1, 2, 7}));
  // Self-merge doubles every counter and the rescue list — the fleet's
  // per-channel aggregation must never corrupt a stats object that appears
  // on both sides.
  a += a;
  EXPECT_EQ(a.detected, 26u);
  EXPECT_EQ(a.bec.delta1, 20u);
  EXPECT_EQ(a.rescued_per_packet,
            (std::vector<std::size_t>{1, 2, 7, 1, 2, 7}));
}

TEST(StreamingStatsMerge, AddsEveryFieldIncludingOccupancyMarks) {
  stream::StreamingStats a;
  a.samples_in = 100;
  a.chunks = 2;
  a.segments = 3;
  a.forced_cuts = 1;
  a.spans_refined = 4;
  a.samples_retired = 90;
  a.live_packets = 1;
  a.peak_live_packets = 2;
  a.high_water_samples = 50;
  a.packets_emitted = 5;
  a.rx.detected = 5;
  stream::StreamingStats b = a;
  b.samples_in = 11;
  b.high_water_samples = 7;
  a += b;
  EXPECT_EQ(a.samples_in, 111u);
  EXPECT_EQ(a.chunks, 4u);
  EXPECT_EQ(a.segments, 6u);
  EXPECT_EQ(a.forced_cuts, 2u);
  EXPECT_EQ(a.spans_refined, 8u);
  EXPECT_EQ(a.samples_retired, 180u);
  // Occupancy marks add: the merged value is the conservative
  // simultaneous-occupancy bound across lanes, not an observed peak.
  EXPECT_EQ(a.live_packets, 2u);
  EXPECT_EQ(a.peak_live_packets, 4u);
  EXPECT_EQ(a.high_water_samples, 57u);
  EXPECT_EQ(a.packets_emitted, 10u);
  EXPECT_EQ(a.rx.detected, 10u);
  a += a;  // self-merge safe
  EXPECT_EQ(a.samples_in, 222u);
  EXPECT_EQ(a.rx.detected, 20u);
}

TEST(StreamingStatsJson, SchemaIsPinned) {
  stream::StreamingStats st;
  st.samples_in = 100;
  st.chunks = 4;
  st.segments = 2;
  st.forced_cuts = 1;
  st.spans_refined = 3;
  st.samples_retired = 90;
  st.live_packets = 5;
  st.peak_live_packets = 6;
  st.high_water_samples = 80;
  st.packets_emitted = 7;
  st.rx.detected = 1;
  const std::string json = st.to_json();
  EXPECT_EQ(json.substr(0, json.find("\"rx\":")),
            "{\"samples_in\":100,\"chunks\":4,\"segments\":2,"
            "\"forced_cuts\":1,\"spans_refined\":3,\"samples_retired\":90,"
            "\"live_packets\":5,\"peak_live_packets\":6,"
            "\"high_water_samples\":80,\"packets_emitted\":7,");
  // The embedded rx object is exactly the ReceiverStats schema.
  EXPECT_NE(json.find("\"rx\":" + st.rx.to_json() + "}"), std::string::npos);
}

TEST(FleetStatsJson, SchemaIsPinned) {
  // Two channels, two SF lanes each. The per-channel objects merge the
  // channel's SF lanes; "totals" merges all four. Both reuse the pinned
  // StreamingStats schema, so this test only needs to pin the fleet
  // header and the grouping structure.
  fleet::FleetStats st;
  st.channels = 2;
  st.sfs = {7, 9};
  st.lanes = 3;
  st.wideband_samples_in = 4000;
  st.wideband_blocks = 2000;
  st.partial_tail_samples = 1;
  st.chunks_dispatched = 8;
  st.resident_iq_samples = 0;
  st.resident_iq_high_water = 1234;
  st.resident_iq_bound = 9999;
  st.packets = 6;
  stream::StreamingStats lane;
  for (unsigned c = 0; c < 2; ++c) {
    for (unsigned sf : st.sfs) {
      lane.samples_in = 100 * (c + 1) + sf;
      lane.packets_emitted = c + sf;
      st.lane_stats.push_back(
          {fleet::LaneInfo{c, sf, std::size_t{1} << sf}, lane});
    }
  }
  stream::StreamingStats ch0 = st.lane_stats[0].second;
  ch0 += st.lane_stats[1].second;
  stream::StreamingStats ch1 = st.lane_stats[2].second;
  ch1 += st.lane_stats[3].second;
  stream::StreamingStats totals = ch0;
  totals += ch1;
  EXPECT_EQ(st.to_json(),
            "{\"fleet\":{\"channels\":2,\"sfs\":[7,9],\"lanes\":3,"
            "\"wideband_samples_in\":4000,\"wideband_blocks\":2000,"
            "\"partial_tail_samples\":1,\"chunks_dispatched\":8,"
            "\"resident_iq_samples\":0,"
            "\"resident_iq_high_water\":1234,\"resident_iq_bound\":9999,"
            "\"packets\":6},"
            "\"channels\":{\"0\":" + ch0.to_json() +
            ",\"1\":" + ch1.to_json() + "},"
            "\"totals\":" + totals.to_json() + "}");
}

TEST(Exposition, DefaultReceiverSeriesStayUnlabeled) {
  // A single-gateway Receiver (no metric_labels) must register exactly the
  // label-free series it always has — the fleet's per-lane labels must not
  // leak into the default exposition schema.
  Registry reg;
  rx::ReceiverOptions opt;
  opt.metrics = &reg;
  rx::Receiver rx({.sf = 7, .cr = 4, .bandwidth_hz = 125e3, .osf = 2}, opt);
  const Snapshot snap = reg.snapshot();
  EXPECT_NE(snap.find("tnb_rx_detected_total", {}), nullptr);
  EXPECT_NE(snap.find("tnb_rx_decoded_total", {{"pass", "first"}}), nullptr);
  for (const auto& m : snap.metrics) {
    for (const auto& [k, v] : m.labels) {
      EXPECT_NE(k, "channel") << m.name;
      EXPECT_NE(k, "sf") << m.name;
    }
  }
}

}  // namespace
}  // namespace tnb::obs
