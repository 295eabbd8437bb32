// Tests for the parallel solve layer: the deterministic thread pool and its
// LPT lane dealing, the symbolic-reusing LDL^T refactorization, the ADMM
// structure cache, the in-place WindowProgram parameter update, and — end to
// end — that the competition game (alone and inside the multi-tenant
// simulation) is bit-identical at any thread count and that warm starting
// does not change the equilibrium it converges to.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <stdexcept>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "dspp/separable_window.hpp"
#include "dspp/window_program.hpp"
#include "game/competition.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "qp/admm_solver.hpp"
#include "sim/multi_provider.hpp"
#include "topology/continental.hpp"
#include "workload/demand.hpp"

namespace gp {
namespace {

// Widen the global pool before its first use: the CI box may expose a single
// hardware thread, and these tests specifically exercise multi-lane runs.
const bool kEnvReady = [] {
  setenv("GEOPLACE_THREADS", "8", /*overwrite=*/0);
  return true;
}();

using linalg::SparseLdlt;
using linalg::SparseMatrix;
using linalg::Triplet;
using linalg::Vector;

// ------------------------------------------------------------------ deal_lpt

TEST(DealLpt, HeaviestFirstToTheLeastLoadedLane) {
  // Order 0(5) 2(3) 3(3) 5(2) 1(1) 4(0); loads after each deal:
  // 5|0, 5|3, 5|6, 7|6, 7|7, and the last job ties to lane 0.
  const std::vector<double> weights{5.0, 1.0, 3.0, 3.0, 0.0, 2.0};
  const auto dealt = deal_lpt(weights, 2);
  ASSERT_EQ(dealt.size(), 2u);
  EXPECT_EQ(dealt[0], (std::vector<std::size_t>{0, 5, 4}));
  EXPECT_EQ(dealt[1], (std::vector<std::size_t>{2, 3, 1}));
}

TEST(DealLpt, TiesGoToTheLowerIndexAndLane) {
  const std::vector<double> equal(5, 1.0);
  const auto dealt = deal_lpt(equal, 2);
  EXPECT_EQ(dealt[0], (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(dealt[1], (std::vector<std::size_t>{1, 3}));
}

TEST(DealLpt, MoreLanesThanJobsAndZeroWeights) {
  const std::vector<double> two{1.0, 2.0};
  const auto spread = deal_lpt(two, 4);
  ASSERT_EQ(spread.size(), 4u);
  EXPECT_EQ(spread[0], (std::vector<std::size_t>{1}));
  EXPECT_EQ(spread[1], (std::vector<std::size_t>{0}));
  EXPECT_TRUE(spread[2].empty());
  EXPECT_TRUE(spread[3].empty());
  // Zero weights never raise a load: every job stays on lane 0, in order.
  const std::vector<double> zeros(3, 0.0);
  const auto piled = deal_lpt(zeros, 3);
  EXPECT_EQ(piled[0], (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(piled[1].empty());
  EXPECT_TRUE(piled[2].empty());
  EXPECT_EQ(deal_lpt({}, 2), (std::vector<std::vector<std::size_t>>(2)));
  EXPECT_THROW(deal_lpt(two, 0), PreconditionError);
}

TEST(DealLpt, DealsEveryJobExactlyOnce) {
  Rng rng(31);
  for (std::size_t jobs : {1u, 7u, 40u}) {
    std::vector<double> weights(jobs);
    for (double& w : weights) w = rng.uniform() < 0.2 ? 0.0 : rng.uniform(0.0, 10.0);
    for (std::size_t lanes = 1; lanes <= 6; ++lanes) {
      const auto dealt = deal_lpt(weights, lanes);
      ASSERT_EQ(dealt.size(), lanes);
      std::vector<int> seen(jobs, 0);
      for (const auto& lane : dealt) {
        for (const std::size_t job : lane) ++seen.at(job);
      }
      EXPECT_EQ(seen, std::vector<int>(jobs, 1)) << jobs << " jobs, " << lanes << " lanes";
      EXPECT_EQ(dealt, deal_lpt(weights, lanes));  // a pure function
    }
  }
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<int> visits(1000, 0);
  pool.parallel_for(0, visits.size(), [&](std::size_t i) { ++visits[i]; });
  for (int count : visits) EXPECT_EQ(count, 1);
}

TEST(ThreadPool, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(7, 9, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 2);
}

TEST(ThreadPool, ResultsBitIdenticalAcrossLaneCounts) {
  ThreadPool pool(7);
  auto compute = [&](std::size_t lanes) {
    std::vector<double> out(513, 0.0);
    pool.parallel_for(
        0, out.size(),
        [&](std::size_t i) {
          double x = static_cast<double>(i) * 0.731 + 0.1;
          for (int k = 0; k < 50; ++k) x = std::sin(x) + std::sqrt(x + 1.0);
          out[i] = x;
        },
        lanes);
    return out;
  };
  const auto one = compute(1);
  for (std::size_t lanes : {2u, 3u, 8u}) {
    const auto many = compute(lanes);
    ASSERT_EQ(many.size(), one.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(many[i], one[i]) << "lanes=" << lanes << " i=" << i;  // bit-exact
    }
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 57) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool is still usable afterwards.
  std::atomic<int> calls{0};
  pool.parallel_for(0, 10, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 10);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> counts(16);
  pool.parallel_for(0, 4, [&](std::size_t outer) {
    pool.parallel_for(0, 4, [&](std::size_t inner) { ++counts[outer * 4 + inner]; });
  });
  for (auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, DefaultLanesHonorsEnvironment) {
  setenv("GEOPLACE_THREADS", "5", /*overwrite=*/1);
  EXPECT_EQ(ThreadPool::default_lanes(), 5u);
  setenv("GEOPLACE_THREADS", "not-a-number", /*overwrite=*/1);
  EXPECT_GE(ThreadPool::default_lanes(), 1u);
  setenv("GEOPLACE_THREADS", "8", /*overwrite=*/1);  // restore for later tests
}

TEST(ThreadPool, GlobalParallelForWorks) {
  std::vector<int> visits(100, 0);
  parallel_for(0, visits.size(), [&](std::size_t i) { ++visits[i]; });
  for (int count : visits) EXPECT_EQ(count, 1);
}

TEST(ThreadPool, PoissonCountsOnLanesMatchSerialPass) {
  // The request replay draws arrival counts on pool lanes. Means of 30 and
  // above take the PTRS rejection path, whose log-gamma term must touch no
  // process-global state (glibc's lgamma writes signgam, a race that the
  // tsan preset reports), and every lane must reproduce the serial counts.
  const std::vector<double> means = {30.0, 97.5, 1e3, 3.3e4, 1e5, 1e6};
  constexpr std::size_t kStreams = 64;
  const auto draw_stream = [&](std::size_t stream) {
    Rng rng(7919 + stream);
    std::vector<double> counts;
    for (int k = 0; k < 200; ++k) {
      for (double mean : means) counts.push_back(workload::sample_poisson_count(mean, rng));
    }
    return counts;
  };
  std::vector<std::vector<double>> serial(kStreams), lanes(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) serial[s] = draw_stream(s);
  ThreadPool pool(3);
  pool.parallel_for(0, kStreams, [&](std::size_t s) { lanes[s] = draw_stream(s); }, 4);
  for (std::size_t s = 0; s < kStreams; ++s) {
    ASSERT_EQ(lanes[s].size(), serial[s].size());
    EXPECT_EQ(std::memcmp(lanes[s].data(), serial[s].data(),
                          serial[s].size() * sizeof(double)),
              0)
        << "stream " << s;
  }
}

// ------------------------------------------------------ ThreadPool telemetry

// A queued chunk signals its parallel_for region complete from inside the
// task body, but the worker adds its counters AFTER the body returns — so
// the caller can observe the region done a beat before the last chunk's
// accounting lands (the header documents counters as utilization
// accounting, not a synchronization point). Tests quiesce on the expected
// task count before asserting exact totals.
void wait_for_tasks(const ThreadPool& pool, unsigned long long expected) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (pool.telemetry().tasks < expected &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

TEST(ThreadPoolTelemetry, DisarmedPoolCountsNothing) {
  ThreadPool pool(3);
  EXPECT_FALSE(pool.telemetry_enabled());
  pool.parallel_for(0, 100, [](std::size_t) {});
  const PoolTelemetry totals = pool.telemetry();
  EXPECT_EQ(totals.tasks, 0u);
  EXPECT_EQ(totals.busy_ns, 0u);
  EXPECT_EQ(totals.idle_ns, 0u);
  EXPECT_EQ(totals.queue_wait_ns, 0u);
  EXPECT_EQ(totals.queue_depth, 0u);
  const auto lanes = pool.lane_telemetry();
  ASSERT_EQ(lanes.size(), pool.num_workers() + 1);
  for (const auto& lane : lanes) {
    EXPECT_EQ(lane.tasks, 0u);
    EXPECT_EQ(lane.busy_ns, 0u);
  }
}

TEST(ThreadPoolTelemetry, ArmedParallelForAccountsTasksAndBusyTime) {
  ThreadPool pool(3);
  pool.set_telemetry_enabled(true);
  EXPECT_TRUE(pool.telemetry_enabled());
  pool.parallel_for(
      0, 4, [](std::size_t) { std::this_thread::sleep_for(std::chrono::milliseconds(2)); },
      /*max_threads=*/4);
  wait_for_tasks(pool, 4);
  const PoolTelemetry totals = pool.telemetry();
  // 4 indices across 4 lanes: exactly one chunk per lane, the caller's
  // chunk included.
  EXPECT_EQ(totals.tasks, 4u);
  // Each chunk slept 2ms, so the summed busy time has a hard floor.
  EXPECT_GE(totals.busy_ns, 4ull * 1'500'000ull);
  EXPECT_EQ(totals.queue_depth, 0u);

  const auto lanes = pool.lane_telemetry();
  ASSERT_EQ(lanes.size(), 4u);
  EXPECT_EQ(lanes[pool.external_lane()].lane, pool.external_lane());
  // The caller always executes chunk 0 itself, on the external lane.
  EXPECT_GE(lanes[pool.external_lane()].tasks, 1u);
  unsigned long long lane_tasks = 0, lane_busy = 0, lane_wait = 0;
  for (const auto& lane : lanes) {
    lane_tasks += lane.tasks;
    lane_busy += lane.busy_ns;
    lane_wait += lane.queue_wait_ns;
  }
  EXPECT_EQ(lane_tasks, totals.tasks);
  EXPECT_EQ(lane_busy, totals.busy_ns);
  EXPECT_EQ(lane_wait, totals.queue_wait_ns);
  pool.set_telemetry_enabled(false);
}

TEST(ThreadPoolTelemetry, ResetZeroesEveryCounter) {
  ThreadPool pool(2);
  pool.set_telemetry_enabled(true);
  pool.parallel_for(0, 8, [](std::size_t) { std::this_thread::sleep_for(std::chrono::milliseconds(1)); });
  wait_for_tasks(pool, 3);  // 8 indices over 3 lanes = 3 chunks
  ASSERT_GT(pool.telemetry().tasks, 0u);
  pool.reset_telemetry();
  const PoolTelemetry totals = pool.telemetry();
  EXPECT_EQ(totals.tasks, 0u);
  EXPECT_EQ(totals.busy_ns, 0u);
  EXPECT_EQ(totals.idle_ns, 0u);
  EXPECT_EQ(totals.queue_wait_ns, 0u);
}

TEST(ThreadPoolTelemetry, NestedParallelForKeepsBusyWithinWallClock) {
  ThreadPool pool(1);  // 2 lanes
  pool.set_telemetry_enabled(true);
  pool.reset_telemetry();
  const auto wall_start = std::chrono::steady_clock::now();
  pool.parallel_for(0, 2, [&](std::size_t) {
    pool.parallel_for(0, 2, [](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    });
  });
  // Quiesce BEFORE reading the wall clock: every busy interval's end-time
  // read happens-before its counter update, so a wall window closed after
  // the expected task count is visible brackets all accounted busy time.
  wait_for_tasks(pool, 6);
  const auto wall_ns = static_cast<unsigned long long>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  const PoolTelemetry totals = pool.telemetry();
  // 2 outer chunks + 2 inner chunks per outer body.
  EXPECT_EQ(totals.tasks, 6u);
  // Busy time is accounted only at the OUTERMOST chunk of each thread, so
  // the pool can never report more busy time than lanes * wall clock — the
  // invariant that keeps the engine's pool_util column inside [0, 1].
  EXPECT_LE(totals.busy_ns, 2 * wall_ns + wall_ns / 5);
  EXPECT_GT(totals.busy_ns, 0u);
}

TEST(ThreadPoolTelemetry, WorkersAccumulateIdleTimeWhileBlocked) {
  ThreadPool pool(2);
  pool.set_telemetry_enabled(true);
  // A worker's wait is timed only once it RE-enters the wait with telemetry
  // armed, and idle is recorded when a task wakes it — so cycle work with
  // gaps until some worker has banked a measurable blocked interval.
  for (int round = 0; round < 50 && pool.telemetry().idle_ns < 1'000'000ull; ++round) {
    pool.parallel_for(
        0, 3, [](std::size_t) { std::this_thread::sleep_for(std::chrono::milliseconds(2)); },
        /*max_threads=*/3);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(pool.telemetry().idle_ns, 1'000'000ull);
}

TEST(ThreadPoolTelemetry, AccountingNeverChangesResults) {
  ThreadPool pool(3);
  auto compute = [&] {
    std::vector<double> out(257, 0.0);
    pool.parallel_for(0, out.size(), [&](std::size_t i) {
      double acc = 0.0;
      for (int k = 1; k <= 40; ++k) acc += std::sin(static_cast<double>(i) / k);
      out[i] = acc;
    });
    return out;
  };
  const auto plain = compute();
  pool.set_telemetry_enabled(true);
  const auto armed = compute();
  pool.set_telemetry_enabled(false);
  ASSERT_EQ(plain.size(), armed.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], armed[i]) << i;  // bit-identical, not just close
  }
}

// ------------------------------------------------------- SparseLdlt refactor

// Upper triangle of a small quasi-definite matrix (SPD block, negative
// block), the shape of the solver's KKT systems.
SparseMatrix quasi_definite_upper(double a, double b, double c) {
  return SparseMatrix::from_triplets(
      5, 5,
      {Triplet{0, 0, 4.0 + a}, Triplet{0, 2, 1.0}, Triplet{1, 1, 3.0 + b}, Triplet{1, 3, 2.0},
       Triplet{2, 2, 5.0}, Triplet{2, 4, c}, Triplet{3, 3, -2.0}, Triplet{4, 4, -3.0}});
}

TEST(SparseLdltRefactor, MatchesFreshFactorAfterValueChange) {
  SparseLdlt cached;
  ASSERT_EQ(cached.factor(quasi_definite_upper(0.0, 0.0, 0.5)), SparseLdlt::Status::kOk);

  const SparseMatrix perturbed = quasi_definite_upper(0.7, -0.3, 1.1);
  ASSERT_EQ(cached.refactor(perturbed), SparseLdlt::Status::kOk);

  SparseLdlt fresh;
  ASSERT_EQ(fresh.factor(perturbed), SparseLdlt::Status::kOk);

  const Vector rhs{1.0, -2.0, 3.0, 0.5, -1.5};
  const Vector via_refactor = cached.solve(rhs);
  const Vector via_fresh = fresh.solve(rhs);
  ASSERT_EQ(via_refactor.size(), via_fresh.size());
  for (std::size_t i = 0; i < via_fresh.size(); ++i) {
    EXPECT_NEAR(via_refactor[i], via_fresh[i], 1e-12);
  }
}

TEST(SparseLdltRefactor, RejectsChangedPattern) {
  SparseLdlt ldlt;
  const SparseMatrix original = quasi_definite_upper(0.0, 0.0, 0.5);
  ASSERT_EQ(ldlt.factor(original), SparseLdlt::Status::kOk);

  // Same size, one extra off-diagonal entry: a different sparsity pattern.
  const SparseMatrix other = SparseMatrix::from_triplets(
      5, 5,
      {Triplet{0, 0, 4.0}, Triplet{0, 1, 0.5}, Triplet{0, 2, 1.0}, Triplet{1, 1, 3.0},
       Triplet{1, 3, 2.0}, Triplet{2, 2, 5.0}, Triplet{2, 4, 0.5}, Triplet{3, 3, -2.0},
       Triplet{4, 4, -3.0}});
  EXPECT_EQ(ldlt.refactor(other), SparseLdlt::Status::kPatternMismatch);

  // The previous factorization must remain intact and correct.
  EXPECT_EQ(ldlt.status(), SparseLdlt::Status::kOk);
  const Vector rhs{1.0, 0.0, -1.0, 2.0, 0.5};
  const Vector x = ldlt.solve(rhs);
  Vector residual = rhs;
  // full symmetric product: r = b - M x with M from the upper triangle.
  for (std::int32_t col = 0; col < original.cols(); ++col) {
    for (std::int32_t k = original.col_ptr()[static_cast<std::size_t>(col)];
         k < original.col_ptr()[static_cast<std::size_t>(col) + 1]; ++k) {
      const std::int32_t row = original.row_idx()[static_cast<std::size_t>(k)];
      const double value = original.values()[static_cast<std::size_t>(k)];
      residual[static_cast<std::size_t>(row)] -= value * x[static_cast<std::size_t>(col)];
      if (row != col) {
        residual[static_cast<std::size_t>(col)] -= value * x[static_cast<std::size_t>(row)];
      }
    }
  }
  for (double r : residual) EXPECT_NEAR(r, 0.0, 1e-10);
}

TEST(SparseLdltRefactor, RequiresPriorFactor) {
  SparseLdlt ldlt;
  EXPECT_EQ(ldlt.refactor(quasi_definite_upper(0.0, 0.0, 0.5)),
            SparseLdlt::Status::kNotFactored);
}

// ---------------------------------------------------- game-level guarantees

topology::NetworkModel small_network() {
  return topology::NetworkModel({"dc0", "dc1"}, {"an0", "an1", "an2"},
                                {{10.0, 20.0, 30.0}, {25.0, 15.0, 10.0}});
}

std::vector<game::ProviderConfig> sample_providers(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  game::RandomProviderParams params;
  params.horizon = 3;
  std::vector<game::ProviderConfig> providers;
  const auto network = small_network();
  for (std::size_t i = 0; i < count; ++i) {
    providers.push_back(game::make_random_provider(network, params, rng));
  }
  return providers;
}

game::GameResult run_game(game::GameSettings settings, std::uint64_t seed = 11,
                          std::size_t providers = 4) {
  game::CompetitionGame game(sample_providers(providers, seed), Vector{150.0, 150.0},
                             settings);
  return game.run();
}

TEST(ParallelGame, BitIdenticalAcrossThreadCounts) {
  game::GameSettings settings;
  settings.epsilon = 0.01;
  settings.num_threads = 1;
  const game::GameResult serial = run_game(settings);

  for (std::size_t threads : {2u, 4u}) {
    settings.num_threads = threads;
    const game::GameResult parallel = run_game(settings);
    EXPECT_EQ(parallel.converged, serial.converged);
    EXPECT_EQ(parallel.iterations, serial.iterations);
    ASSERT_EQ(parallel.cost_history.size(), serial.cost_history.size());
    for (std::size_t k = 0; k < serial.cost_history.size(); ++k) {
      EXPECT_EQ(parallel.cost_history[k], serial.cost_history[k])
          << "threads=" << threads << " iteration=" << k;  // bit-exact
    }
    ASSERT_EQ(parallel.quotas.size(), serial.quotas.size());
    for (std::size_t i = 0; i < serial.quotas.size(); ++i) {
      ASSERT_EQ(parallel.quotas[i].size(), serial.quotas[i].size());
      for (std::size_t l = 0; l < serial.quotas[i].size(); ++l) {
        EXPECT_EQ(parallel.quotas[i][l], serial.quotas[i][l])
            << "threads=" << threads << " i=" << i << " l=" << l;  // bit-exact
      }
    }
  }
}

dspp::WindowInputs inputs_for(const game::ProviderConfig& provider) {
  dspp::WindowInputs inputs;
  inputs.initial_state = provider.initial_state;
  inputs.demand = provider.demand;
  inputs.price = provider.price;
  inputs.soft_demand_penalty = 5.0;
  return inputs;
}

TEST(WindowProgramUpdate, MatchesFreshConstruction) {
  const auto provider = sample_providers(1, 3).front();
  const dspp::PairIndex pairs(provider.model);

  dspp::WindowInputs first = inputs_for(provider);
  dspp::WindowProgram updated(provider.model, pairs, first);

  // New forecasts, initial state, and a quota: everything update() rewrites.
  dspp::WindowInputs second = inputs_for(provider);
  for (auto& d : second.demand) {
    for (double& value : d) value *= 1.3;
  }
  for (auto& p : second.price) {
    for (double& value : p) value += 0.25;
  }
  for (double& x : second.initial_state) x += 1.0;
  second.capacity_override = Vector{80.0, 90.0};
  updated.update(provider.model, pairs, second);

  const dspp::WindowProgram fresh(provider.model, pairs, second);
  const qp::QpProblem& a = updated.problem();
  const qp::QpProblem& b = fresh.problem();
  EXPECT_EQ(a.q, b.q);
  EXPECT_EQ(a.lower, b.lower);
  EXPECT_EQ(a.upper, b.upper);
  ASSERT_EQ(a.p.nnz(), b.p.nnz());
  ASSERT_EQ(a.a.nnz(), b.a.nnz());
  for (std::size_t k = 0; k < a.p.values().size(); ++k) {
    EXPECT_EQ(a.p.values()[k], b.p.values()[k]);
  }
  for (std::size_t k = 0; k < a.a.values().size(); ++k) {
    EXPECT_EQ(a.a.values()[k], b.a.values()[k]);
  }
}

TEST(WindowProgramUpdate, RejectsShapeChanges) {
  const auto provider = sample_providers(1, 5).front();
  const dspp::PairIndex pairs(provider.model);
  dspp::WindowProgram program(provider.model, pairs, inputs_for(provider));

  dspp::WindowInputs longer = inputs_for(provider);
  longer.demand.push_back(longer.demand.back());
  longer.price.push_back(longer.price.back());
  EXPECT_THROW(program.update(provider.model, pairs, longer), PreconditionError);

  dspp::WindowInputs hard = inputs_for(provider);
  hard.soft_demand_penalty = 0.0;
  EXPECT_THROW(program.update(provider.model, pairs, hard), PreconditionError);
}

TEST(AdmmCache, ParameterUpdatedSolvesMatchFreshSolver) {
  const auto provider = sample_providers(1, 7).front();
  const dspp::PairIndex pairs(provider.model);

  qp::AdmmSettings settings;
  settings.cache_structure = true;
  qp::AdmmSolver cached(settings);

  dspp::WindowInputs first = inputs_for(provider);
  dspp::WindowProgram program(provider.model, pairs, first);
  const qp::QpResult warmup = cached.solve(program.problem());
  ASSERT_TRUE(warmup.ok());

  dspp::WindowInputs second = inputs_for(provider);
  for (auto& d : second.demand) {
    for (double& value : d) value *= 1.2;
  }
  second.capacity_override = Vector{120.0, 140.0};
  program.update(provider.model, pairs, second);

  const qp::QpResult via_cache = cached.solve(program.problem());
  ASSERT_TRUE(via_cache.ok());

  qp::AdmmSettings cold_settings;
  cold_settings.cache_structure = false;
  qp::AdmmSolver cold(cold_settings);
  const qp::QpResult via_cold = cold.solve(program.problem());
  ASSERT_TRUE(via_cold.ok());

  EXPECT_NEAR(via_cache.objective, via_cold.objective,
              1e-5 * (1.0 + std::abs(via_cold.objective)));
  ASSERT_EQ(via_cache.x.size(), via_cold.x.size());
  for (std::size_t i = 0; i < via_cold.x.size(); ++i) {
    EXPECT_NEAR(via_cache.x[i], via_cold.x[i], 1e-4);
  }

  const qp::AdmmCacheStats& stats = cached.cache_stats();
  EXPECT_EQ(stats.solves, 2);
  EXPECT_EQ(stats.structure_hits, 1);
  EXPECT_GE(stats.full_factorizations, 1LL);

  // The per-solve SolveInfo mirrors the lifetime counters: cold setup on
  // the first solve; the second is a structure-cache hit, and since the
  // update touched only q/bounds the cached factorization is reused.
  EXPECT_EQ(warmup.info.cache_hits, 0);
  EXPECT_GE(warmup.info.factorizations, 1);
  EXPECT_FALSE(warmup.info.factorization_skipped);
  EXPECT_EQ(via_cache.info.cache_hits, 1);
  EXPECT_TRUE(via_cache.info.factorization_skipped);
}

TEST(AdmmCache, SkipsFactorizationWhenProblemUnchanged) {
  const auto provider = sample_providers(1, 9).front();
  const dspp::PairIndex pairs(provider.model);
  dspp::WindowProgram program(provider.model, pairs, inputs_for(provider));

  qp::AdmmSolver solver;  // cache_structure defaults to true
  const qp::QpResult first = solver.solve(program.problem());
  const qp::QpResult second = solver.solve(program.problem());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NEAR(second.objective, first.objective, 1e-6 * (1.0 + std::abs(first.objective)));
  EXPECT_GE(solver.cache_stats().factorizations_skipped, 1LL);
  EXPECT_TRUE(second.info.factorization_skipped);
  EXPECT_EQ(second.info.factorizations, 0);
  EXPECT_EQ(second.info.cache_hits, 1);
}

TEST(AdmmCache, PatternChangeFallsBackToFullSetup) {
  const auto providers = sample_providers(2, 13);
  qp::AdmmSolver solver;

  const dspp::PairIndex pairs0(providers[0].model);
  dspp::WindowProgram soft(providers[0].model, pairs0, inputs_for(providers[0]));
  ASSERT_TRUE(solver.solve(soft.problem()).ok());

  // A hard-demand program drops the slack block: different dimensions and
  // pattern. The solver must transparently rerun the full setup.
  dspp::WindowInputs hard_inputs = inputs_for(providers[1]);
  hard_inputs.soft_demand_penalty = 0.0;
  const dspp::PairIndex pairs1(providers[1].model);
  dspp::WindowProgram hard(providers[1].model, pairs1, hard_inputs);
  const qp::QpResult result = solver.solve(hard.problem());
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(solver.cache_stats().structure_hits, 0);
  EXPECT_GE(solver.cache_stats().full_factorizations, 2LL);
}

TEST(AdmmWorkspace, ConcurrentWarmSolversAreRaceFreeAndBitIdentical) {
  // Each AdmmSolver owns its workspace; concurrent solvers sharing one
  // read-only QpProblem must not race (this is the configuration the
  // parallel best-response sweep runs, and the one the tsan preset checks).
  // Every lane re-solves twice so the second solve exercises the REUSED
  // warm workspace, and all lanes must produce bitwise-identical iterates.
  const auto provider = sample_providers(1, 23).front();
  const dspp::PairIndex pairs(provider.model);
  const dspp::WindowProgram program(provider.model, pairs, inputs_for(provider));
  const qp::QpProblem& problem = program.problem();

  constexpr std::size_t kLanes = 4;
  std::vector<qp::QpResult> warm_results(kLanes);
  ThreadPool pool(kLanes);
  pool.parallel_for(0, kLanes, [&](std::size_t lane) {
    qp::AdmmSolver solver;
    (void)solver.solve(problem);  // sizes the workspace
    warm_results[lane] = solver.solve(problem);
  });

  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    ASSERT_EQ(warm_results[lane].status, qp::SolveStatus::kOptimal) << "lane " << lane;
    EXPECT_EQ(warm_results[lane].info.hot_loop_allocations, 0) << "lane " << lane;
    EXPECT_EQ(warm_results[lane].x, warm_results[0].x) << "lane " << lane;
    EXPECT_EQ(warm_results[lane].y, warm_results[0].y) << "lane " << lane;
  }
}

TEST(ParallelGame, WarmStartMatchesColdStartEquilibrium) {
  // Regression for the warm-start cross-contamination bug: with one solver
  // PER PROVIDER, enabling auto_warm_start must converge to the same
  // equilibrium as cold starts (it only changes the starting iterate of
  // each provider's OWN previous problem).
  game::GameSettings cold;
  cold.epsilon = 0.01;
  cold.solver.auto_warm_start = false;
  game::GameSettings warm = cold;
  warm.solver.auto_warm_start = true;

  const game::GameResult cold_result = run_game(cold, 17);
  const game::GameResult warm_result = run_game(warm, 17);
  ASSERT_TRUE(cold_result.converged);
  ASSERT_TRUE(warm_result.converged);
  EXPECT_NEAR(warm_result.total_cost, cold_result.total_cost,
              0.02 * cold_result.total_cost);
  ASSERT_EQ(warm_result.quotas.size(), cold_result.quotas.size());
  for (std::size_t i = 0; i < cold_result.quotas.size(); ++i) {
    for (std::size_t l = 0; l < cold_result.quotas[i].size(); ++l) {
      EXPECT_NEAR(warm_result.quotas[i][l], cold_result.quotas[i][l], 10.0)
          << "i=" << i << " l=" << l;
    }
  }
}


/// A tenant on a V-network slice of a shared two-DC platform. Tenants with
/// more access networks pose larger best-response programs, so four of them
/// with V = 2, 3, 5 and 8 make Jacobi rounds whose jobs differ several-fold.
sim::TenantConfig unequal_tenant(std::size_t num_an, double base_rate, int utc_offset) {
  std::vector<std::string> an_names;
  std::vector<std::vector<double>> latency(2);
  std::vector<workload::DemandSource> networks;
  for (std::size_t v = 0; v < num_an; ++v) {
    an_names.push_back("an" + std::to_string(v));
    latency[0].push_back(10.0 + 6.0 * static_cast<double>(v % 4));
    latency[1].push_back(30.0 - 5.0 * static_cast<double>(v % 5));
    networks.push_back({base_rate / static_cast<double>(v + 1), utc_offset,
                        workload::DiurnalProfile()});
  }
  dspp::DsppModel model;
  model.network = topology::NetworkModel({"dc0", "dc1"}, an_names, latency);
  model.sla.mu = 100.0;
  model.sla.max_latency_ms = 100.0;
  model.reconfig_cost = {0.05, 0.05};
  model.capacity = {1e12, 1e12};  // quotas govern capacity
  model.server_size = 1.0;
  return sim::TenantConfig{std::move(model), workload::DemandModel(std::move(networks)),
                           std::make_unique<control::LastValuePredictor>()};
}

TEST(ParallelGame, MultiTenantPeriodsBitIdenticalAtAnyLaneCount) {
  // The rounds deal best responses to lanes by measured wall time, which
  // differs from run to run; what each lane computes must not.
  auto run = [](std::size_t lanes) {
    std::vector<sim::TenantConfig> tenants;
    tenants.push_back(unequal_tenant(2, 150.0, -5));
    tenants.push_back(unequal_tenant(3, 300.0, -6));
    tenants.push_back(unequal_tenant(5, 500.0, -7));
    tenants.push_back(unequal_tenant(8, 700.0, -8));
    sim::MultiTenantConfig config;
    config.periods = 6;
    config.horizon = 3;
    config.utc_start_hour = 17.0;
    config.noisy_demand = true;
    config.seed = 5;
    config.game.epsilon = 0.01;
    config.game.num_threads = lanes;
    sim::MultiTenantSimulation simulation(
        std::move(tenants),
        workload::ServerPriceModel(topology::default_datacenter_sites(2),
                                   workload::VmType::kMedium, workload::ElectricityPriceModel()),
        Vector{31.0, 31.0}, config);
    return simulation.run();
  };
  const sim::MultiTenantSummary serial = run(1);
  ASSERT_EQ(serial.tenants.size(), 4u);
  // The shared capacity binds in the busy hours, so rounds exchange quota.
  EXPECT_GT(*std::max_element(serial.game_iterations.begin(), serial.game_iterations.end()),
            1 + game::kStableIterationsRequired);
  for (std::size_t lanes : {2u, 3u, 4u}) {
    const sim::MultiTenantSummary parallel = run(lanes);
    EXPECT_EQ(parallel.game_iterations, serial.game_iterations) << lanes << " lanes";
    EXPECT_EQ(parallel.game_converged, serial.game_converged) << lanes << " lanes";
    ASSERT_EQ(parallel.tenants.size(), serial.tenants.size());
    for (std::size_t i = 0; i < serial.tenants.size(); ++i) {
      ASSERT_EQ(parallel.tenants[i].size(), serial.tenants[i].size());
      for (std::size_t k = 0; k < serial.tenants[i].size(); ++k) {
        const sim::TenantPeriodMetrics& a = parallel.tenants[i][k];
        const sim::TenantPeriodMetrics& b = serial.tenants[i][k];
        // Bit-exact, field by field.
        EXPECT_EQ(a.demand, b.demand) << lanes << " lanes, tenant " << i << ", period " << k;
        EXPECT_EQ(a.servers, b.servers) << lanes << " lanes, tenant " << i << ", period " << k;
        EXPECT_EQ(a.cost, b.cost) << lanes << " lanes, tenant " << i << ", period " << k;
        EXPECT_EQ(a.unserved, b.unserved) << lanes << " lanes, tenant " << i << ", period " << k;
      }
    }
    EXPECT_EQ(parallel.tenant_total_costs, serial.tenant_total_costs) << lanes << " lanes";
    EXPECT_EQ(parallel.total_cost, serial.total_cost) << lanes << " lanes";
    EXPECT_EQ(parallel.total_unserved, serial.total_unserved) << lanes << " lanes";
  }
}

TEST(SeparableWindowLanes, BitIdenticalAcrossLaneCounts) {
  // scale_smoke's shape (20 DCs x 120 networks, <= 6 pairs each): a warm
  // sequence of windows, dealt over 1..4 lanes, lands bit-identically.
  topology::ContinentalSpec spec;
  spec.num_datacenters = 20;
  spec.num_access_networks = 120;
  spec.seed = 77;
  const topology::ContinentalTopology topo = topology::generate_continental(spec);
  dspp::DsppModel model;
  model.network = topology::NetworkModel::from_geography(topo.sites, topo.cities);
  model.sla.max_latency_ms = 45.0;
  model.reconfig_cost.assign(20, 0.01);
  model.capacity.assign(20, 2000.0);
  model.candidates_per_an = 6;
  const dspp::PairIndex pairs(model);

  std::vector<std::vector<Vector>> runs;
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    dspp::SeparableWindow separable(model, pairs);
    Rng rng(5);
    Vector state(pairs.num_pairs(), 1.0);
    std::vector<Vector> trajectory;
    for (int step = 0; step < 4; ++step) {
      dspp::WindowInputs inputs;
      inputs.initial_state = state;
      for (std::size_t t = 0; t < 5; ++t) {
        Vector demand(model.num_access_networks());
        for (double& d : demand) d = rng.uniform(0.0, 80.0);
        inputs.demand.push_back(std::move(demand));
        Vector price(model.num_datacenters());
        for (double& p : price) p = rng.uniform(0.05, 0.3);
        inputs.price.push_back(std::move(price));
      }
      ASSERT_EQ(separable.solve(inputs, /*warm=*/true, lanes),
                dspp::SeparableOutcome::kCertified);
      const dspp::WindowSolution solution = separable.solution(inputs);
      trajectory.insert(trajectory.end(), solution.x.begin(), solution.x.end());
      trajectory.push_back(Vector{solution.objective});
      state = solution.x.front();
    }
    runs.push_back(std::move(trajectory));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[r][i], runs[0][i]) << "lanes=" << r + 1 << " row=" << i;  // bitwise
    }
  }
}

TEST(SeparableWindowLanes, SoftRoundsBitIdenticalAcrossLaneCounts) {
  // Algorithm 2's rounds on scale_smoke's shape: per period, soft windows
  // under a quota that binds, then grows (the kept relaxation certifies),
  // dealt over 1..4 lanes: outcomes and solutions land bit-identically.
  topology::ContinentalSpec spec;
  spec.num_datacenters = 20;
  spec.num_access_networks = 120;
  spec.seed = 78;
  const topology::ContinentalTopology topo = topology::generate_continental(spec);
  dspp::DsppModel model;
  model.network = topology::NetworkModel::from_geography(topo.sites, topo.cities);
  model.sla.max_latency_ms = 45.0;
  model.reconfig_cost.assign(20, 0.01);
  model.capacity.assign(20, 1e12);
  model.candidates_per_an = 6;
  const dspp::PairIndex pairs(model);

  std::vector<std::vector<Vector>> runs;
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    dspp::SeparableWindow separable(model, pairs);
    Rng rng(6);
    Vector state(pairs.num_pairs(), 1.0);
    std::vector<Vector> trajectory;
    for (int period = 0; period < 3; ++period) {
      dspp::WindowInputs inputs;
      inputs.initial_state = state;
      inputs.soft_demand_penalty = 5.0;
      for (std::size_t t = 0; t < 5; ++t) {
        Vector demand(model.num_access_networks());
        for (double& d : demand) d = rng.uniform(0.0, 80.0);
        inputs.demand.push_back(std::move(demand));
        Vector price(model.num_datacenters());
        for (double& p : price) p = rng.uniform(0.05, 0.3);
        inputs.price.push_back(std::move(price));
      }
      for (const double quota : {1.0, 1e12}) {
        inputs.capacity_override = Vector(model.num_datacenters(), quota);
        const dspp::SeparableOutcome outcome = separable.solve(inputs, /*warm=*/true, lanes);
        ASSERT_EQ(outcome, quota > 1.0 ? dspp::SeparableOutcome::kCertified
                                       : dspp::SeparableOutcome::kCapacityViolated);
        EXPECT_EQ(separable.last_reused(), quota > 1.0);
      }
      const dspp::WindowSolution solution = separable.solution(inputs);
      trajectory.insert(trajectory.end(), solution.x.begin(), solution.x.end());
      trajectory.push_back(Vector{solution.objective});
      state = solution.x.front();
    }
    runs.push_back(std::move(trajectory));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[r][i], runs[0][i]) << "lanes=" << r + 1 << " row=" << i;  // bitwise
    }
  }
}

}  // namespace
}  // namespace gp
