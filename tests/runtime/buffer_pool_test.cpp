// Concurrency contract of the graph runtime's buffer pool: the scheduler
// acquires and releases intermediates from worker threads, so the pool must
// never hand the same buffer to two owners, keep its counters consistent
// under churn, and make multi-worker graph runs bit-identical to serial
// ones. Run under TSan these tests double as a data-race check on the
// Acquire/Release paths.
#include "runtime/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "image/metrics.hpp"
#include "image/synthetic.hpp"
#include "ops/kernel_sources.hpp"
#include "runtime/graph.hpp"
#include "sim/trace.hpp"

namespace hipacc {
namespace {

using runtime::BufferPool;
using runtime::GraphOptions;
using runtime::PipelineGraph;

TEST(BufferPoolTest, RecyclesOnlyMatchingExtent) {
  BufferPool pool;
  BufferPool::ImagePtr a = pool.Acquire(16, 8);
  BufferPool::ImagePtr b = pool.Acquire(8, 16);  // transposed: distinct key
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->width(), 16);
  EXPECT_EQ(a->height(), 8);
  dsl::Image<float>* recycled = a.get();
  pool.Release(std::move(a));
  pool.Release(std::move(b));
  // Same extent comes back from the free list; a third extent allocates.
  BufferPool::ImagePtr again = pool.Acquire(16, 8);
  EXPECT_EQ(again.get(), recycled);
  BufferPool::ImagePtr fresh = pool.Acquire(4, 4);
  EXPECT_EQ(pool.alloc_count(), 3);
  EXPECT_EQ(pool.reuse_count(), 1);
}

TEST(BufferPoolTest, ConcurrentChurnNeverDoubleHandsOutABuffer) {
  // Hammer one pool from a worker-pool's worth of threads over a small set
  // of extents (so reuse actually happens), and track every live pointer
  // in a shared set: an Acquire returning a buffer some other thread still
  // owns inserts a duplicate and fails immediately.
  BufferPool pool;
  constexpr int kThreads = 8;
  constexpr int kIterations = 400;
  constexpr struct { int w, h; } kExtents[] = {{33, 17}, {64, 8}, {17, 33}};
  std::mutex live_mu;
  std::set<const dsl::Image<float>*> live;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const auto& e = kExtents[(t + i) % 3];
        BufferPool::ImagePtr img = pool.Acquire(e.w, e.h);
        if (img == nullptr || img->width() != e.w || img->height() != e.h) {
          errors.fetch_add(1);
          continue;
        }
        {
          std::lock_guard<std::mutex> lock(live_mu);
          if (!live.insert(img.get()).second) errors.fetch_add(1);
        }
        // Touch the pixels while owning the buffer; a double hand-out
        // turns this into a racing write TSan flags even if the set
        // check's timing misses it.
        img->span()(0, 0) = static_cast<float>(t * kIterations + i);
        {
          std::lock_guard<std::mutex> lock(live_mu);
          live.erase(img.get());
        }
        pool.Release(std::move(img));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  // Every acquire was served, either fresh or recycled, and the pool never
  // allocated more than the true concurrent peak per extent.
  EXPECT_EQ(pool.alloc_count() + pool.reuse_count(),
            static_cast<long long>(kThreads) * kIterations);
  EXPECT_LE(pool.alloc_count(), static_cast<long long>(kThreads) * 3);
  EXPECT_GT(pool.reuse_count(), 0);
}

TEST(PipelineGraphConcurrencyTest, WorkerPoolRunsBitIdenticalToSerial) {
  // A wide fan-out/fan-in DAG: eight independent blur branches (3x3 and 5x5
  // clamp Gaussians, so halo 1 and 2 with nine region programs each)
  // feeding a reduction chain of point stages. With workers > 1 the branches
  // execute concurrently and each host stage's rows run as bands on several
  // workers, releasing intermediates back to the shared BufferPool from
  // different threads; pixels must still match the serial run and the
  // simulator bit for bit. Bands cut 67x45 unevenly, and 64x9 has fewer rows
  // than one band.
  struct Extent {
    int width, height;
  };
  for (const Extent extent : {Extent{48, 40}, Extent{67, 45}, Extent{64, 9}}) {
    const int w = extent.width, h = extent.height;
    const HostImage<float> in = MakeNoiseImage(w, h, 21);
    const auto run = [&](int workers, GraphOptions::Executor executor) {
      PipelineGraph graph;
      graph.Source("in", w, h);
      for (int b = 0; b < 8; ++b) {
        const std::string name = "blur" + std::to_string(b);
        graph.Kernel(name,
                     ops::GaussianSource(b % 2 == 0 ? 3 : 5, 1.0f + 0.1f * b,
                                         ast::BoundaryMode::kClamp),
                     {{"Input", "in"}});
      }
      std::string acc = "blur0";
      for (int b = 1; b < 8; ++b) {
        const std::string merged = "merge" + std::to_string(b);
        graph.Kernel(merged, ops::PyramidDetailSource(),
                     {{"U", acc}, {"Fine", "blur" + std::to_string(b)}});
        acc = merged;
      }
      graph.Output(acc);
      sim::TraceSink trace;
      GraphOptions options;
      options.workers = workers;
      options.executor = executor;
      options.run.trace = &trace;
      HostImage<float> out(w, h);
      EXPECT_TRUE(graph.Run({{"in", &in}}, {{acc, &out}}, options).ok());
      // Rerun on the same graph: the pool must serve every intermediate from
      // the free list regardless of which worker released it.
      const long long allocs = trace.counter("bufpool.alloc");
      EXPECT_TRUE(graph.Run({{"in", &in}}, {{acc, &out}}, options).ok());
      EXPECT_EQ(trace.counter("bufpool.alloc"), allocs);
      EXPECT_GT(graph.pool().reuse_count(), 0);
      EXPECT_EQ(graph.pool().live_count(), 0);
      if (executor == GraphOptions::Executor::kAuto) {
        EXPECT_EQ(trace.counter("graph.launches.sim"), 0);
      }
      return out;
    };
    const HostImage<float> serial = run(1, GraphOptions::Executor::kAuto);
    EXPECT_EQ(MaxAbsDiff(serial, run(4, GraphOptions::Executor::kSimulator)),
              0.0)
        << w << "x" << h << " on the simulator";
    for (const int workers : {2, 3, 4, 7, 8})
      EXPECT_EQ(MaxAbsDiff(serial, run(workers, GraphOptions::Executor::kAuto)),
                0.0)
          << w << "x" << h << " on " << workers << " workers";
  }
}

}  // namespace
}  // namespace hipacc
