#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "tests/sampling_oracle.h"

namespace fbdetect {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(99);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(RngTest, NormalScalesMeanAndStddev) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Normal(10.0, 2.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, ClippedNormalStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.ClippedNormal(0.5, 10.0, 0.0, 1.0);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(RngTest, BoundedUintRespectsBound) {
  Rng rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextUint64(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // All values reachable.
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(17);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) {
    ++counts[oracle::WeightedIndex(rng, weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Poisson(4.5);
  }
  EXPECT_NEAR(sum / n, 4.5, 0.1);
}

TEST(RngTest, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(29);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const int v = rng.Poisson(500.0);
    EXPECT_GE(v, 0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 500.0, 2.0);
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("endpoint_12", "endpoint_"));
  EXPECT_FALSE(StartsWith("end", "endpoint_"));
}

TEST(StringsTest, TokenizeIdentifierHandlesCamelAndSnake) {
  EXPECT_EQ(TokenizeIdentifier("TaoClient::fetchUserById"),
            (std::vector<std::string>{"tao", "client", "fetch", "user", "by", "id"}));
  EXPECT_EQ(TokenizeIdentifier("my_snake_case"),
            (std::vector<std::string>{"my", "snake", "case"}));
  EXPECT_TRUE(TokenizeIdentifier("").empty());
  EXPECT_TRUE(TokenizeIdentifier("___").empty());
}

TEST(SimTimeTest, DurationHelpers) {
  EXPECT_EQ(Minutes(90), 90 * 60);
  EXPECT_EQ(Hours(2), 7200);
  EXPECT_EQ(Days(1), kDay);
  EXPECT_EQ(kWeek, 7 * kDay);
}

TEST(StatusTest, OkByDefaultAndErrorCarriesCodeAndMessage) {
  EXPECT_TRUE(Status().ok());
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  const Status error = Status::DataLoss("chunk truncated");
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.code(), StatusCode::kDataLoss);
  EXPECT_EQ(error.ToString(), "DATA_LOSS: chunk truncated");
}

Status PropagateIfError(const Status& status, bool& reached_end) {
  FBD_RETURN_IF_ERROR(status);
  reached_end = true;
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorMacroShortCircuits) {
  bool reached_end = false;
  EXPECT_TRUE(PropagateIfError(Status::Ok(), reached_end).ok());
  EXPECT_TRUE(reached_end);
  reached_end = false;
  const Status propagated =
      PropagateIfError(Status::OutOfOrder("stale point"), reached_end);
  EXPECT_EQ(propagated.code(), StatusCode::kOutOfOrder);
  EXPECT_FALSE(reached_end);
}

TEST(ThreadPoolTest, TaskExceptionRethrownAtJoinAndBatchStillCompletes) {
  ThreadPool pool(3);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.ParallelFor(64,
                                [&](size_t i) {
                                  if (i == 17) {
                                    throw std::runtime_error("boom");
                                  }
                                  completed.fetch_add(1);
                                }),
               std::runtime_error);
  // Tasks are independent: every other index still ran (no abandoned work,
  // no deadlocked workers).
  EXPECT_EQ(completed.load(), 63);
  // The pool is not poisoned: the next batch runs normally.
  std::atomic<int> second{0};
  pool.ParallelFor(32, [&](size_t) { second.fetch_add(1); });
  EXPECT_EQ(second.load(), 32);
}

TEST(ThreadPoolTest, EveryTaskThrowingStillJoinsWithOneException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(16, [](size_t) { throw std::runtime_error("all bad"); }),
      std::runtime_error);
  std::atomic<int> after{0};
  pool.ParallelFor(8, [&](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPoolTest, WorkerlessPoolHasSameExceptionContract) {
  ThreadPool pool(0);
  int completed = 0;
  EXPECT_THROW(pool.ParallelFor(8,
                                [&](size_t i) {
                                  if (i == 3) {
                                    throw std::runtime_error("serial boom");
                                  }
                                  ++completed;
                                }),
               std::runtime_error);
  EXPECT_EQ(completed, 7);
}

// --- ThreadPool granularity floor -------------------------------------------

TEST(ThreadPoolGranularityTest, ResultsIdenticalAcrossGrainAndPoolSize) {
  // The regression this guards: ParallelIndexFor's min_items_per_lane floor
  // must never change results, only whether the pool is woken. Sweep n around
  // the threshold for serial, small-pool, and large-pool execution.
  const size_t kGrain = 8;
  for (size_t n : {0ul, 1ul, 7ul, 8ul, 15ul, 16ul, 17ul, 64ul, 129ul}) {
    std::vector<uint64_t> expected(n);
    for (size_t i = 0; i < n; ++i) {
      expected[i] = i * i + 1;
    }
    for (size_t workers : {0ul, 1ul, 3ul, 7ul}) {
      ThreadPool pool(workers);
      std::vector<uint64_t> got(n, 0);
      ParallelIndexFor(
          n, &pool, [&](size_t i) { got[i] = i * i + 1; }, kGrain);
      EXPECT_EQ(got, expected) << "n=" << n << " workers=" << workers;
    }
  }
}

TEST(ThreadPoolGranularityTest, SmallBatchesStayOnCallingThread) {
  // Below the floor the pool must not be dispatched at all: every index runs
  // on the calling thread (observable via thread-local identity).
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(7);
  ParallelIndexFor(
      ran_on.size(), &pool, [&](size_t i) { ran_on[i] = std::this_thread::get_id(); },
      /*min_items_per_lane=*/8);
  for (size_t i = 0; i < ran_on.size(); ++i) {
    EXPECT_EQ(ran_on[i], caller) << "index " << i << " left the calling thread";
  }
}

TEST(ThreadPoolGranularityTest, LargeBatchesUseThePool) {
  // Above the floor the batch fans out: the calling thread's first index
  // waits until a worker has run one, which the serial path never would.
  ThreadPool pool(4);
  std::atomic<size_t> off_thread{0};
  bool caller_waited = false;
  const std::thread::id caller = std::this_thread::get_id();
  ParallelIndexFor(
      1024, &pool,
      [&](size_t) {
        if (std::this_thread::get_id() != caller) {
          off_thread.fetch_add(1, std::memory_order_relaxed);
        } else if (!caller_waited) {
          caller_waited = true;
          const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
          while (off_thread.load(std::memory_order_relaxed) == 0 &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
        }
      },
      /*min_items_per_lane=*/8);
  EXPECT_GT(off_thread.load(), 0u);
}

TEST(ThreadPoolGranularityTest, ExceptionsStillPropagateThroughGrainedPath) {
  ThreadPool pool(2);
  EXPECT_THROW(
      ParallelIndexFor(
          256, &pool,
          [&](size_t i) {
            if (i == 200) {
              throw std::runtime_error("boom");
            }
          },
          /*min_items_per_lane=*/4),
      std::runtime_error);
  // The pool must remain usable after an exception drains.
  std::atomic<size_t> count{0};
  ParallelIndexFor(
      64, &pool, [&](size_t) { count.fetch_add(1, std::memory_order_relaxed); }, 1);
  EXPECT_EQ(count.load(), 64u);
}

}  // namespace
}  // namespace fbdetect
