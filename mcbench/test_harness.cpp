// Self-tests of the benchmark's measurement helpers (harness.h, tracer.h)
// and of the multi-producer drain rule the paced generator relies on.
#include <gtest/gtest.h>

#include <chrono>
#include <span>
#include <thread>

#include "engine/streaming_engine.h"
#include "harness.h"
#include "tracer.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace mcbench {
namespace {

TEST(Percentile, FractionalRankWithSampleCounts) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 50.5);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 100.0);
  EXPECT_NEAR(percentile(v, 99.0), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);

  const TailSummary s = summarize(v);
  EXPECT_EQ(s.samples, 100u);
  EXPECT_EQ(s.beyond_p90, 10u);  // 91..100 lie beyond p90 = 90.1
  EXPECT_EQ(s.beyond_p99, 1u);   // too few to report p99 on its own
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(0, 50.0), 0u);
}

TEST(OpenLoopSchedule, DueTimesFollowTheRateNotTheSends) {
  const OpenLoopSchedule s(1000, 1e6, 1024);  // 1 Mreq/s, 1024-record blocks
  EXPECT_EQ(s.due_ns(0), 1000);
  EXPECT_EQ(s.due_ns(1), 1000 + 1024000);
  EXPECT_EQ(s.due_ns(1000), 1000 + 1024000000LL);
  // Blocks per second at the rate, whatever happened to earlier blocks.
  const OpenLoopSchedule t(0, 3e6, 1024);
  std::size_t due_in_1s = 0;
  while (t.due_ns(due_in_1s) < 1000000000LL) ++due_in_1s;
  EXPECT_EQ(due_in_1s, 2930u);  // ceil(3e6 / 1024)
}

TEST(SpanCompletions, CountBasedCompletionInOrder) {
  SpanCompletions c;
  std::vector<double> lat;
  c.submitted(1024, 0);
  c.submitted(2048, 1000);
  c.submitted(3072, 2000);
  EXPECT_EQ(c.poll(1023, 5000, lat), 0u);  // one record short
  EXPECT_EQ(c.poll(2048, 6000, lat), 2u);
  ASSERT_EQ(lat.size(), 2u);
  EXPECT_DOUBLE_EQ(lat[0], 6.0);  // due 0 ns, completed at 6000 ns
  EXPECT_DOUBLE_EQ(lat[1], 5.0);
  EXPECT_EQ(c.outstanding(), 1u);
  EXPECT_EQ(c.poll(4000, 12000, lat), 1u);
  EXPECT_DOUBLE_EQ(lat[2], 10.0);
  EXPECT_EQ(c.outstanding(), 0u);
}

// Under the deterministic merge a producer's last record retires only once
// every other producer's watermark has passed it — or that producer
// closed. A paced generator that waited for its final spans before closing
// its sessions would wait forever; closing first lets the count complete.
TEST(SpanCompletions, MultiProducerTailRetiresOnlyAfterClose) {
  mcdc::EngineConfig cfg;
  cfg.num_shards = 2;
  cfg.deterministic = true;
  cfg.service_options.recording = mcdc::RecordingMode::kCostsOnly;
  mcdc::StreamingEngine eng(4, mcdc::CostModel(1.0, 1.0), cfg);
  auto a = eng.open_producer();
  auto b = eng.open_producer();
  const std::vector<mcdc::MultiItemRequest> ra = {{1, 0, 1.0}, {2, 1, 3.0}};
  const std::vector<mcdc::MultiItemRequest> rb = {{3, 2, 2.0}, {4, 3, 4.0}};
  a.submit_span(ra);
  b.submit_span(rb);
  auto retired = [&] { return 4 - a.in_flight() - b.in_flight(); };
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (retired() < 3 && std::chrono::steady_clock::now() < deadline) std::this_thread::yield();
  EXPECT_EQ(retired(), 3u);  // t = 1, 2, 3 merge; t = 4 waits on a's watermark (3)
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(retired(), 3u);

  SpanCompletions c;
  std::vector<double> lat;
  c.submitted(4, 0);
  EXPECT_EQ(c.poll(retired(), 1, lat), 0u);
  a.close();
  b.close();
  while (c.outstanding() > 0 && std::chrono::steady_clock::now() < deadline) {
    c.poll(retired(), 2, lat);
  }
  EXPECT_EQ(c.outstanding(), 0u);
  const auto rep = eng.finish();
  EXPECT_EQ(rep.items, 4u);
}

TEST(ProcParsing, CpuStealShareAndStatusKb) {
  const CpuTimes a = parse_cpu_line("cpu  100 5 50 800 10 0 5 30 7 0");
  EXPECT_EQ(a.total, 1000u);  // user..steal; guest fields are inside user/nice
  EXPECT_EQ(a.steal, 30u);
  const CpuTimes b = parse_cpu_line("cpu  200 5 100 1500 10 0 5 80 9 0");
  EXPECT_EQ(b.total, 1900u);
  EXPECT_DOUBLE_EQ(steal_share(a, b), 50.0 / 900.0);
  EXPECT_DOUBLE_EQ(steal_share(b, a), 0.0);
  EXPECT_EQ(parse_cpu_line("cpu0 1 2 3").total, 0u);  // per-CPU lines are not the aggregate
  EXPECT_EQ(parse_cpu_line("cpu  1 2 3").total, 6u);  // old kernels: fewer fields

  const std::string status = "Name:\tmcbench\nVmPeak:\t  999 kB\nVmHWM:\t   42424 kB\nVmRSS:\t 100 kB\n";
  EXPECT_EQ(parse_status_kb(status, "VmHWM"), 42424u);
  EXPECT_EQ(parse_status_kb(status, "VmRSS"), 100u);
  EXPECT_EQ(parse_status_kb(status, "VmSwap"), 0u);
  EXPECT_GT(read_vmhwm_kb(), 0u);
  EXPECT_GT(read_cpu_times().total, 0u);
}

TEST(StreamHash, SameSeedSameStream) {
  mcdc::MultiItemConfig cfg;
  cfg.num_servers = 16;
  cfg.num_items = 512;
  cfg.num_requests = 20000;
  cfg.arrival_rate = 5000.0;
  auto gen = [&](std::uint64_t seed) {
    mcdc::Rng rng(seed);
    return stream_hash(mcdc::gen_multi_item(rng, cfg));
  };
  EXPECT_EQ(gen(7), gen(7));
  EXPECT_NE(gen(7), gen(8));
}

TEST(Tracer, SelfTimeAndChromeJson) {
  Tracer t(true);
  const int root = t.begin("phase.x");
  const int child = t.begin("service");
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  t.end(child);
  t.end(root);
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[0].child_ns, t.spans()[1].end_ns - t.spans()[1].start_ns);
  const auto self = t.self_ms();
  EXPECT_GE(self.at("service"), 2.0);
  EXPECT_LT(self.at("phase.x"), self.at("service"));
  const std::string json = t.chrome_json();
  EXPECT_NE(json.find("\"name\":\"service\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"id\":1,\"parent\":0}"), std::string::npos);

  Tracer off(false);
  EXPECT_EQ(off.begin("x"), -1);
  off.end(-1);
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace mcbench
