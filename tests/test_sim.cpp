// Tests for the discrete-event simulator: the policy runner, the baseline
// policies, and the schedule executor. The central property is
// implementation triangulation: the SC policy driven through the generic
// simulator must reproduce core/online_sc.cpp's costs exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/offline_dp.h"
#include "core/online_sc.h"
#include "model/schedule_validator.h"
#include "sim/executor.h"
#include "sim/policies.h"
#include "sim/policy_runner.h"
#include "util/rng.h"

namespace mcdc {
namespace {

RequestSequence random_sequence(Rng& rng, int m, int n, double rate = 1.0) {
  std::vector<Request> reqs;
  Time t = 0.0;
  for (int i = 0; i < n; ++i) {
    t += rng.exponential(rate) + 1e-3;
    reqs.push_back({static_cast<ServerId>(rng.uniform_int(std::uint64_t(m))), t});
  }
  return RequestSequence(m, std::move(reqs));
}

// ---------------- Cross-implementation triangulation ----------------

TEST(PolicyRunner, ScPolicyMatchesCoreImplementation) {
  Rng rng(1234);
  const CostModel cm(1.0, 1.0);
  for (int inst = 0; inst < 30; ++inst) {
    const auto seq = random_sequence(rng, 4, 40);
    const auto core = run_speculative_caching(seq, cm);
    ScSimPolicy policy(cm, seq.origin());
    const auto sim = run_policy(seq, cm, policy);
    ASSERT_TRUE(sim.feasible) << sim.violations.front();
    EXPECT_NEAR(sim.total_cost, core.total_cost, 1e-7)
        << "instance " << inst << "\n"
        << seq.to_string() << "\ncore: " << core.schedule.to_string()
        << "\nsim:  " << sim.schedule.to_string();
    EXPECT_EQ(sim.transfers, core.misses);
    EXPECT_EQ(sim.hits, core.hits);
  }
}

TEST(PolicyRunner, ScPolicyMatchesCoreWithEpochs) {
  Rng rng(4321);
  const CostModel cm(1.0, 2.0);
  for (int inst = 0; inst < 20; ++inst) {
    const auto seq = random_sequence(rng, 5, 50, 0.6);
    SpeculativeCachingOptions opt;
    opt.epoch_transfers = 7;
    const auto core = run_speculative_caching(seq, cm, opt);
    ScSimPolicy policy(cm, seq.origin(), 7);
    const auto sim = run_policy(seq, cm, policy);
    ASSERT_TRUE(sim.feasible) << sim.violations.front();
    EXPECT_NEAR(sim.total_cost, core.total_cost, 1e-7) << seq.to_string();
  }
}

TEST(PolicyRunner, ScPolicyMatchesCoreWithWiderWindow) {
  Rng rng(777);
  const CostModel cm(2.0, 1.0);
  for (int inst = 0; inst < 15; ++inst) {
    const auto seq = random_sequence(rng, 3, 30, 2.0);
    SpeculativeCachingOptions opt;
    opt.speculation_factor = 4.0;
    const auto core = run_speculative_caching(seq, cm, opt);
    ScSimPolicy policy(cm, seq.origin(), 0, 4.0);
    const auto sim = run_policy(seq, cm, policy);
    ASSERT_TRUE(sim.feasible);
    EXPECT_NEAR(sim.total_cost, core.total_cost, 1e-7) << seq.to_string();
  }
}

// ---------------- Baseline policies ----------------

TEST(Policies, AlwaysMigrateCostFormula) {
  const CostModel cm(1.0, 2.0);
  const RequestSequence seq(3, {{1, 1.0}, {1, 2.0}, {2, 3.5}, {0, 4.0}});
  AlwaysMigratePolicy policy(seq.origin());
  const auto res = run_policy(seq, cm, policy);
  ASSERT_TRUE(res.feasible);
  // One copy alive at all times: mu * horizon; 3 server changes.
  EXPECT_NEAR(res.caching_cost, 4.0, 1e-9);
  EXPECT_NEAR(res.transfer_cost, 3 * 2.0, 1e-9);
  EXPECT_EQ(res.max_copies, 2u);  // transient during migration
}

TEST(Policies, StaticHomeCostFormula) {
  const CostModel cm(1.0, 2.0);
  const RequestSequence seq(3, {{1, 1.0}, {0, 2.0}, {2, 3.0}, {1, 4.0}});
  StaticHomePolicy policy(seq.origin());
  const auto res = run_policy(seq, cm, policy);
  ASSERT_TRUE(res.feasible);
  EXPECT_NEAR(res.caching_cost, 4.0, 1e-9);   // home copy only
  EXPECT_NEAR(res.transfer_cost, 3 * 2.0, 1e-9);  // 3 off-home requests
}

TEST(Policies, FullReplicationNeverRefetches) {
  const CostModel cm(1.0, 1.0);
  const RequestSequence seq(3, {{1, 1.0}, {2, 2.0}, {1, 3.0}, {2, 4.0}, {0, 5.0}});
  FullReplicationPolicy policy(seq.origin());
  const auto res = run_policy(seq, cm, policy);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.transfers, 2u);  // first touches of s2 and s3 only
  // Copies: s1 lives [0,5], s2 [1,5], s3 [2,5] -> 5 + 4 + 3 = 12.
  EXPECT_NEAR(res.caching_cost, 12.0, 1e-9);
  EXPECT_EQ(res.max_copies, 3u);
}

TEST(Policies, LruKRespectsCapacity) {
  Rng rng(5);
  const CostModel cm(1.0, 1.0);
  const auto seq = random_sequence(rng, 6, 80);
  LruKPolicy policy(seq.m(), seq.origin(), 2);
  const auto res = run_policy(seq, cm, policy);
  ASSERT_TRUE(res.feasible) << res.violations.front();
  EXPECT_LE(res.max_copies, 3u);  // k plus the in-flight arrival
  EXPECT_EQ(res.policy_name, "lru-2");
}

TEST(Policies, LruOneIsMigration) {
  Rng rng(6);
  const CostModel cm(1.0, 1.0);
  const auto seq = random_sequence(rng, 4, 60);
  LruKPolicy lru1(seq.m(), seq.origin(), 1);
  AlwaysMigratePolicy mig(seq.origin());
  const auto a = run_policy(seq, cm, lru1);
  const auto b = run_policy(seq, cm, mig);
  ASSERT_TRUE(a.feasible);
  ASSERT_TRUE(b.feasible);
  EXPECT_NEAR(a.total_cost, b.total_cost, 1e-9);
}

TEST(Policies, TunableScWithNullControllerMatchesSc) {
  // The adaptive window source at a fixed decision IS the static SC
  // policy: with no controller attached it must reproduce it cost-exactly,
  // across window factors and epoch lengths.
  Rng rng(31);
  const CostModel cm(1.0, 2.0);
  for (int inst = 0; inst < 20; ++inst) {
    const auto seq = random_sequence(rng, 5, 50, 0.7);
    const double factor = 0.5 + 0.5 * (inst % 4);
    const std::size_t epoch = inst % 2 == 0 ? 0 : 6;
    ScSimPolicy sc(cm, seq.origin(), epoch, factor);
    WindowDecision initial;
    initial.factor = factor;
    initial.epoch_transfers = inst % 2 == 0 ? 0 : 6;
    auto tunable =
        ScSimPolicy::adaptive(cm, seq.origin(), 0.0, nullptr, initial);
    const auto a = run_policy(seq, cm, sc);
    const auto b = run_policy(seq, cm, tunable);
    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);
    EXPECT_NEAR(a.total_cost, b.total_cost, 1e-9) << "instance " << inst;
    EXPECT_EQ(a.transfers, b.transfers);
    EXPECT_EQ(a.hits, b.hits);
  }
}

/// Pins the speculation factor at 0.25 from the first interval on.
struct PinLowController final : WindowController {
  WindowDecision on_interval(const WindowIntervalStats&,
                             const WindowDecision& current) override {
    WindowDecision d = current;
    d.factor = 0.25;
    return d;
  }
};

TEST(Policies, TunableScAppliesControllerDecisions) {
  // A controller that pins the factor low must change costs relative to
  // the static policy on a stream with re-use gaps between 0.25x and 1x
  // of the base window.
  const CostModel cm(1.0, 2.0);  // base window 2.0
  std::vector<Request> reqs;
  Time t = 0.0;
  for (int i = 0; i < 40; ++i) {
    t += 1.0;  // gaps of 1.0: inside the 2.0 window, outside 0.5
    reqs.push_back({static_cast<ServerId>(i % 2), t});
  }
  const RequestSequence seq(2, std::move(reqs));
  ScSimPolicy sc(cm, seq.origin());
  PinLowController controller;
  auto tunable = ScSimPolicy::adaptive(cm, seq.origin(), 1.0, &controller);
  const auto a = run_policy(seq, cm, sc);
  const auto b = run_policy(seq, cm, tunable);
  ASSERT_TRUE(a.feasible);
  ASSERT_TRUE(b.feasible);
  // Static SC holds both copies the whole run (every gap refreshes);
  // the pinned-low window expires the idle copy and re-transfers.
  EXPECT_GT(b.transfers, a.transfers);
  EXPECT_LT(b.caching_cost, a.caching_cost);
}

TEST(Policies, TunableScRejectsControllerWithoutInterval) {
  struct Noop final : WindowController {
    WindowDecision on_interval(const WindowIntervalStats&,
                               const WindowDecision& current) override {
      return current;
    }
  };
  const CostModel cm(1.0, 1.0);
  Noop controller;
  EXPECT_THROW(ScSimPolicy::adaptive(cm, 0, 0.0, &controller),
               std::invalid_argument);
}

TEST(Policies, RandomizedSkiRentalFeasibleAndBounded) {
  Rng rng(7);
  Rng policy_rng(99);
  const CostModel cm(1.0, 1.0);
  for (int inst = 0; inst < 15; ++inst) {
    const auto seq = random_sequence(rng, 4, 50);
    auto policy = ScSimPolicy::randomized(cm, seq.origin(), policy_rng);
    const auto res = run_policy(seq, cm, policy);
    ASSERT_TRUE(res.feasible) << res.violations.front();
    const auto v = validate_schedule(res.schedule, seq);
    EXPECT_TRUE(v.ok) << v.to_string();
    OfflineDpOptions o;
    o.reconstruct_schedule = false;
    const auto opt = solve_offline(seq, cm, o);
    EXPECT_GE(res.total_cost, opt.optimal_cost - 1e-7);
  }
}

TEST(Policies, AllPoliciesProduceValidSchedules) {
  Rng rng(8);
  Rng prng(17);
  const CostModel cm(1.0, 1.0);
  const auto seq = random_sequence(rng, 5, 60);
  std::vector<std::unique_ptr<OnlinePolicy>> policies;
  policies.push_back(std::make_unique<ScSimPolicy>(cm, seq.origin()));
  policies.push_back(std::make_unique<ScSimPolicy>(cm, seq.origin(), 10));
  policies.push_back(std::make_unique<AlwaysMigratePolicy>(seq.origin()));
  policies.push_back(std::make_unique<StaticHomePolicy>(seq.origin()));
  policies.push_back(std::make_unique<FullReplicationPolicy>(seq.origin()));
  policies.push_back(std::make_unique<LruKPolicy>(seq.m(), seq.origin(), 3));
  policies.push_back(std::make_unique<ScSimPolicy>(
      ScSimPolicy::randomized(cm, seq.origin(), prng)));
  for (auto& p : policies) {
    const auto res = run_policy(seq, cm, *p);
    ASSERT_TRUE(res.feasible) << p->name() << ": " << res.violations.front();
    const auto v = validate_schedule(res.schedule, seq);
    EXPECT_TRUE(v.ok) << p->name() << ": " << v.to_string();
    EXPECT_NEAR(res.schedule.cost(cm), res.total_cost, 1e-7) << p->name();
  }
}

TEST(PolicyRunner, DetectsNonServingPolicy) {
  struct DoNothing final : OnlinePolicy {
    std::string name() const override { return "do-nothing"; }
    void on_request(ReplicaContext&, ServerId, RequestIndex) override {}
  };
  const CostModel cm(1.0, 1.0);
  const RequestSequence seq(2, {{1, 1.0}});
  DoNothing p;
  const auto res = run_policy(seq, cm, p);
  EXPECT_FALSE(res.feasible);
}

TEST(PolicyRunner, DetectsDropOfLastCopy) {
  struct DropAll final : OnlinePolicy {
    std::string name() const override { return "drop-all"; }
    void on_request(ReplicaContext& ctx, ServerId s, RequestIndex) override {
      if (!ctx.has_copy(s)) ctx.transfer(ctx.holders().front(), s);
      for (const ServerId h : ctx.holders()) ctx.drop(h);
    }
  };
  const CostModel cm(1.0, 1.0);
  const RequestSequence seq(2, {{1, 1.0}});
  DropAll p;
  const auto res = run_policy(seq, cm, p);
  EXPECT_FALSE(res.feasible);
}

// ---------------- Failure injection ----------------

TEST(FailureInjection, ZeroProbabilityIsIdentity) {
  Rng rng(71);
  const CostModel cm(1.0, 1.0);
  const auto seq = random_sequence(rng, 4, 40);
  ScSimPolicy a(cm, seq.origin());
  ScSimPolicy b(cm, seq.origin());
  const auto plain = run_policy(seq, cm, a);
  Rng frng(1);
  const auto injected = run_policy(seq, cm, b, {.transfer_failure_prob = 0.0,
                                                .rng = &frng});
  EXPECT_DOUBLE_EQ(plain.total_cost, injected.total_cost);
  EXPECT_EQ(injected.failed_transfer_attempts, 0u);
}

TEST(FailureInjection, RetriesBilledGeometrically) {
  // With failure probability p, expected attempts = 1/(1-p): the mean
  // transfer cost multiplier over many transfers approaches that.
  Rng rng(73);
  Rng frng(99);
  const CostModel cm(1.0, 1.0);
  const double p = 0.4;
  std::size_t transfers = 0, failures = 0;
  for (int inst = 0; inst < 30; ++inst) {
    const auto seq = random_sequence(rng, 6, 60);
    ScSimPolicy policy(cm, seq.origin());
    const auto res =
        run_policy(seq, cm, policy, {.transfer_failure_prob = p, .rng = &frng});
    ASSERT_TRUE(res.feasible);
    transfers += res.transfers;
    failures += res.failed_transfer_attempts;
    // Cost identity: lambda * (transfers + failed attempts) is the
    // transfer bill.
    EXPECT_NEAR(res.transfer_cost,
                cm.lambda * static_cast<double>(res.transfers +
                                                res.failed_transfer_attempts),
                1e-9);
  }
  const double multiplier =
      static_cast<double>(transfers + failures) / static_cast<double>(transfers);
  EXPECT_NEAR(multiplier, 1.0 / (1.0 - p), 0.12);
}

TEST(FailureInjection, RejectsBadConfig) {
  const CostModel cm(1.0, 1.0);
  const RequestSequence seq(2, {{1, 1.0}});
  ScSimPolicy policy(cm, seq.origin());
  EXPECT_THROW(run_policy(seq, cm, policy, {.transfer_failure_prob = 0.5}),
               std::invalid_argument);
  Rng rng(1);
  EXPECT_THROW(
      run_policy(seq, cm, policy, {.transfer_failure_prob = 1.0, .rng = &rng}),
      std::invalid_argument);
}

// ---------------- Prediction-augmented SC ----------------

TEST(PredictiveSc, PerfectOracleFeasibleAndNoWorseThanSc) {
  Rng rng(55);
  Rng dummy(1);
  const CostModel cm(1.0, 1.0);
  double pred_total = 0.0, sc_total = 0.0;
  for (int inst = 0; inst < 20; ++inst) {
    const auto seq = random_sequence(rng, 5, 60);
    auto policy = ScSimPolicy::predictive(cm, seq.origin(),
                                          make_sequence_oracle(seq, 0.0, dummy));
    const auto res = run_policy(seq, cm, policy);
    ASSERT_TRUE(res.feasible) << res.violations.front();
    const auto v = validate_schedule(res.schedule, seq);
    EXPECT_TRUE(v.ok) << v.to_string();
    pred_total += res.total_cost;
    sc_total += run_speculative_caching(seq, cm).total_cost;
    const auto opt = solve_offline(seq, cm, {.reconstruct_schedule = false});
    EXPECT_GE(res.total_cost, opt.optimal_cost - 1e-7);
  }
  EXPECT_LT(pred_total, sc_total);  // consistency: predictions help
}

TEST(PredictiveSc, AdversarialOracleStillFeasible) {
  Rng rng(57);
  const CostModel cm(1.0, 1.0);
  for (int inst = 0; inst < 10; ++inst) {
    const auto seq = random_sequence(rng, 4, 40);
    auto policy = ScSimPolicy::predictive(
        cm, seq.origin(), make_adversarial_oracle(seq, cm.speculation_window()));
    const auto res = run_policy(seq, cm, policy);
    ASSERT_TRUE(res.feasible) << res.violations.front();
    const auto v = validate_schedule(res.schedule, seq);
    EXPECT_TRUE(v.ok) << v.to_string();
  }
}

TEST(PredictiveSc, OracleGapsAreCorrect) {
  const RequestSequence seq(2, {{1, 1.0}, {0, 2.0}, {1, 5.0}});
  Rng dummy(1);
  const auto oracle = make_sequence_oracle(seq, 0.0, dummy);
  EXPECT_NEAR(oracle(1, 0, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(oracle(1, 1, 1.0), 4.0, 1e-12);   // next use of s2 after t=1
  EXPECT_NEAR(oracle(0, 0, 0.5), 1.5, 1e-12);
  EXPECT_TRUE(std::isinf(oracle(0, 3, 3.0)));   // no more requests on s1
}

// ---------------- Pinned costs of the SC window sources ----------------
//
// Exact total cost, transfer count and hit count of the rand-ski,
// predictive-sc and sc-adaptive windows on seeded random sequences. All of
// them run the same SC rules (refresh on use and on transfer, sourcing,
// last-copy pin, (expiry, ordinal) victim order); a change to those rules,
// to the wake-ups a policy schedules or to the order of its random draws
// moves these values.

struct PinnedRun {
  double total_cost;
  std::size_t transfers;
  std::size_t hits;
};

/// Runs `make(seq)` through run_policy on one seeded random sequence per
/// entry of `want` and checks each result exactly.
template <typename MakePolicy>
void expect_pinned_runs(std::uint64_t seed, const CostModel& cm,
                        const std::vector<PinnedRun>& want, MakePolicy make) {
  Rng rng(seed);
  for (std::size_t inst = 0; inst < want.size(); ++inst) {
    const auto seq = random_sequence(rng, 5, 60, 0.8);
    auto policy = make(seq);
    const auto res = run_policy(seq, cm, policy);
    ASSERT_TRUE(res.feasible) << res.violations.front();
    EXPECT_DOUBLE_EQ(res.total_cost, want[inst].total_cost)
        << "instance " << inst;
    EXPECT_EQ(res.transfers, want[inst].transfers) << "instance " << inst;
    EXPECT_EQ(res.hits, want[inst].hits) << "instance " << inst;
  }
}

TEST(PinnedScCosts, RandomizedSkiRental) {
  const CostModel cm(1.0, 1.5);
  Rng policy_rng(99);
  expect_pinned_runs(101, cm, {
      {198.04376703075144, 49, 11},
      {188.41010095842142, 43, 17},
      {161.67806067384578, 42, 18},
      {181.40793070999686, 44, 16},
      {153.93949570170059, 34, 26},
      {173.77648607669417, 41, 19},
      {157.6889462726183, 41, 19},
      {163.71727395134772, 40, 20},
      {174.23735456426806, 38, 22},
      {155.20834169864236, 40, 20}
  }, [&](const RequestSequence& seq) {
    return ScSimPolicy::randomized(cm, seq.origin(), policy_rng);
  });
}

TEST(PinnedScCosts, PredictivePerfectOracle) {
  const CostModel cm(0.8, 1.3);
  Rng dummy(1);
  expect_pinned_runs(102, cm, {
      {118.84501254979898, 44, 16},
      {125.72659455823364, 40, 20},
      {107.87306465814756, 41, 19},
      {99.808123999284533, 34, 26},
      {104.2902977442303, 39, 21},
      {106.07275016130059, 37, 23},
      {102.85711131378773, 39, 21},
      {115.76643388179127, 40, 20},
      {114.17952740944733, 35, 25},
      {105.23121834159845, 36, 24}
  }, [&](const RequestSequence& seq) {
    return ScSimPolicy::predictive(cm, seq.origin(),
                                   make_sequence_oracle(seq, 0.0, dummy));
  });
}

TEST(PinnedScCosts, PredictiveNoisyOracle) {
  const CostModel cm(0.8, 1.3);
  Rng noise_rng(7);
  expect_pinned_runs(103, cm, {
      {109.69318593417478, 38, 22},
      {104.31487234790491, 38, 22},
      {99.638036892241018, 37, 23},
      {109.22779957025321, 39, 21},
      {110.37992210562687, 37, 23},
      {94.841456348438442, 33, 27},
      {110.92147651618777, 39, 21},
      {118.12764143235776, 40, 20},
      {126.98576522860228, 43, 17},
      {90.624923883057519, 33, 27}
  }, [&](const RequestSequence& seq) {
    return ScSimPolicy::predictive(cm, seq.origin(),
                                   make_sequence_oracle(seq, 0.5, noise_rng));
  });
}

TEST(PinnedScCosts, PredictiveAdversarialOracle) {
  const CostModel cm(0.8, 1.3);
  expect_pinned_runs(104, cm, {
      {178.81637815279208, 57, 3},
      {188.44157722526359, 55, 5},
      {183.87905081162421, 57, 3},
      {178.61507822690157, 56, 4},
      {166.5077140813238, 54, 6},
      {178.71836106132349, 56, 4},
      {178.62998677602832, 50, 10},
      {166.90155546837556, 54, 6},
      {186.77457677519865, 54, 6},
      {172.37611859228207, 55, 5}
  }, [&](const RequestSequence& seq) {
    return ScSimPolicy::predictive(
        cm, seq.origin(), make_adversarial_oracle(seq, cm.speculation_window()));
  });
}

TEST(PinnedScCosts, AdaptivePinLowController) {
  const CostModel cm(1.0, 2.0);
  PinLowController controller;
  expect_pinned_runs(105, cm, {
      {195.6795638174093, 46, 14},
      {173.72177540170549, 45, 15},
      {181.1184460277187, 46, 14},
      {203.81600123427785, 48, 12},
      {188.18170187754981, 42, 18},
      {189.74889735707532, 44, 16},
      {182.64587118220845, 43, 17},
      {184.29074376669658, 47, 13},
      {181.70014481788633, 46, 14},
      {180.00653173118715, 45, 15}
  }, [&](const RequestSequence& seq) {
    return ScSimPolicy::adaptive(cm, seq.origin(), 1.0, &controller);
  });
}

// ---------------- Schedule executor ----------------

TEST(Executor, AgreesWithDeclaredCostOnOptimalSchedules) {
  Rng rng(9);
  const CostModel cm(1.0, 1.5);
  for (int inst = 0; inst < 25; ++inst) {
    const auto seq = random_sequence(rng, 5, 30);
    const auto opt = solve_offline(seq, cm);
    const auto rep = execute_schedule(opt.schedule, seq, cm);
    EXPECT_TRUE(rep.ok) << rep.to_string();
    EXPECT_NEAR(rep.measured_total_cost, opt.optimal_cost, 1e-7);
    EXPECT_GE(rep.peak_replicas, 1u);
  }
}

TEST(Executor, AgreesWithScCost) {
  Rng rng(10);
  const CostModel cm(1.0, 1.0);
  for (int inst = 0; inst < 15; ++inst) {
    const auto seq = random_sequence(rng, 4, 40);
    const auto sc = run_speculative_caching(seq, cm);
    const auto rep = execute_schedule(sc.schedule, seq, cm);
    EXPECT_TRUE(rep.ok) << rep.to_string();
    EXPECT_NEAR(rep.measured_total_cost, sc.total_cost, 1e-7);
  }
}

TEST(Executor, DetectsCoverageHole) {
  const RequestSequence seq(2, {{0, 1.0}, {0, 4.0}});
  const CostModel cm(1.0, 1.0);
  Schedule s;
  s.add_cache(0, 0.0, 1.0);
  s.add_cache(0, 3.0, 4.0);
  const auto rep = execute_schedule(s, seq, cm);
  EXPECT_FALSE(rep.ok);
}

TEST(Executor, DetectsSourcelessTransfer) {
  const RequestSequence seq(3, {{1, 1.0}});
  const CostModel cm(1.0, 1.0);
  Schedule s;
  s.add_cache(0, 0.0, 1.0);
  s.add_transfer(2, 1, 1.0);
  const auto rep = execute_schedule(s, seq, cm);
  EXPECT_FALSE(rep.ok);
}

TEST(Executor, DetectsUnservedRequest) {
  const RequestSequence seq(2, {{1, 1.0}});
  const CostModel cm(1.0, 1.0);
  Schedule s;
  s.add_cache(0, 0.0, 1.0);
  const auto rep = execute_schedule(s, seq, cm);
  EXPECT_FALSE(rep.ok);
}

TEST(Executor, OccupancyStats) {
  const RequestSequence seq(2, {{1, 1.0}, {1, 2.0}});
  const CostModel cm(1.0, 1.0);
  Schedule s;
  s.add_cache(0, 0.0, 2.0);
  s.add_cache(1, 1.0, 2.0);
  s.add_transfer(0, 1, 1.0);
  const auto rep = execute_schedule(s, seq, cm);
  ASSERT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(rep.peak_replicas, 2u);
  EXPECT_NEAR(rep.mean_replicas, 1.5, 1e-9);
  EXPECT_EQ(rep.requests_served_by_cache + rep.requests_served_by_transfer, 2u);
}

}  // namespace
}  // namespace mcdc
