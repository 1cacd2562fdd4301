#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bit_packer.h"
#include "common/bytes.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/task_pool.h"

namespace tc {
namespace {

TEST(Bytes, FixedRoundTrip) {
  Buffer b;
  PutFixed16(&b, 0xBEEF);
  PutFixed32(&b, 0xDEADBEEF);
  PutFixed64(&b, 0x0123456789ABCDEFull);
  PutDouble(&b, 3.14159);
  PutFloat(&b, 2.5f);
  const uint8_t* p = b.data();
  EXPECT_EQ(GetFixed16(p), 0xBEEF);
  EXPECT_EQ(GetFixed32(p + 2), 0xDEADBEEF);
  EXPECT_EQ(GetFixed64(p + 6), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(GetDouble(p + 14), 3.14159);
  EXPECT_FLOAT_EQ(GetFloat(p + 22), 2.5f);
}

TEST(Bytes, OverwriteFixed32) {
  Buffer b(8, 0);
  OverwriteFixed32(&b, 2, 0xCAFEBABE);
  EXPECT_EQ(GetFixed32(b.data() + 2), 0xCAFEBABE);
}

TEST(Varint, RoundTripBoundaries) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                     0xFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull}) {
    Buffer b;
    PutVarint64(&b, v);
    uint64_t out = 0;
    size_t n = GetVarint64(b.data(), b.data() + b.size(), &out);
    EXPECT_EQ(n, b.size());
    EXPECT_EQ(out, v);
  }
}

TEST(Varint, TruncatedInputFails) {
  Buffer b;
  PutVarint64(&b, 1ull << 40);
  uint64_t out = 0;
  EXPECT_EQ(GetVarint64(b.data(), b.data() + b.size() - 1, &out), 0u);
}

TEST(Varint, RandomRoundTrip) {
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.Next() >> rng.Uniform(64);
    Buffer b;
    PutVarint64(&b, v);
    uint64_t out = 0;
    ASSERT_EQ(GetVarint64(b.data(), b.data() + b.size(), &out), b.size());
    ASSERT_EQ(out, v);
  }
}

TEST(Zigzag, RoundTrip) {
  const int64_t cases[] = {0,         1,         -1,    2, -2, INT64_MAX,
                           INT64_MIN, 123456789, -987654321};
  for (int64_t v : cases) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
}

TEST(BitsFor, Values) {
  EXPECT_EQ(BitsFor(0), 0);
  EXPECT_EQ(BitsFor(1), 1);
  EXPECT_EQ(BitsFor(2), 2);
  EXPECT_EQ(BitsFor(3), 2);
  EXPECT_EQ(BitsFor(255), 8);
  EXPECT_EQ(BitsFor(256), 9);
}

TEST(BitPacker, RoundTripAllWidths) {
  for (int width = 0; width <= 57; ++width) {
    Buffer b;
    BitPacker packer(&b);
    Rng rng(width + 1);
    std::vector<uint64_t> values;
    for (int i = 0; i < 100; ++i) {
      uint64_t mask = width == 0 ? 0 : (width == 64 ? ~0ull : (1ull << width) - 1);
      uint64_t v = rng.Next() & mask;
      values.push_back(v);
      packer.Append(v, width);
    }
    packer.Finish();
    BitReader reader(b.data(), b.size());
    for (uint64_t v : values) {
      ASSERT_EQ(reader.Read(width), v) << "width=" << width;
    }
  }
}

TEST(BitPacker, MixedWidthsWithByteAlignment) {
  Buffer b;
  BitPacker packer(&b);
  packer.Append(5, 3);
  packer.Append(1000, 11);
  packer.Append(1, 1);
  packer.Finish();
  BitReader reader(b.data(), b.size());
  EXPECT_EQ(reader.Read(3), 5u);
  EXPECT_EQ(reader.Read(11), 1000u);
  EXPECT_EQ(reader.Read(1), 1u);
}

TEST(Crc32, KnownVector) {
  // CRC32-C("123456789") == 0xE3069283 (well-known check value).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32, DetectsCorruption) {
  std::string data = "hello world, this is a checksum test";
  uint32_t crc = Crc32c(data.data(), data.size());
  data[5] ^= 0x01;
  EXPECT_NE(Crc32c(data.data(), data.size()), crc);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, RangeBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

// ---------------------------------------------------------------------------
// TaskGroup: the per-owner completion/cancellation story of the shared pool.
// ---------------------------------------------------------------------------

TEST(TaskGroup, WaitCoversEverySubmittedTask) {
  TaskPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    group.Submit([&](bool canceled) {
      EXPECT_FALSE(canceled);
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(group.outstanding(), 0u);
}

TEST(TaskGroup, WaitCoversTasksSubmittedByTasks) {
  TaskPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  group.Submit([&](bool) {
    ran.fetch_add(1);
    group.Submit([&](bool) { ran.fetch_add(1); });
  });
  group.Wait();
  EXPECT_EQ(ran.load(), 2);
}

TEST(TaskGroup, CancelSkipsQueuedButNotStartedTasks) {
  TaskPool pool(1);  // single worker: deterministic queue order
  TaskGroup group(&pool);
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  std::atomic<bool> first_canceled{true};
  std::atomic<bool> second_canceled{false};
  // First task occupies the worker until released. The test waits for it to
  // START before canceling, so it must see canceled == false and run to
  // completion.
  group.Submit([&](bool canceled) {
    first_canceled.store(canceled);
    std::unique_lock<std::mutex> lock(mu);
    started = true;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return started; });
  }
  // Second task is queued behind it and must observe the cancellation.
  group.Submit([&](bool canceled) { second_canceled.store(canceled); });
  group.Cancel();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  group.Wait();
  EXPECT_FALSE(first_canceled.load());
  EXPECT_TRUE(second_canceled.load());
}

TEST(TaskGroup, TwoGroupsOnOnePoolAreIndependent) {
  TaskPool pool(2);
  TaskGroup a(&pool);
  TaskGroup b(&pool);
  std::atomic<int> a_ran{0}, b_ran{0};
  a.Submit([&](bool canceled) {
    EXPECT_FALSE(canceled);
    a_ran.fetch_add(1);
  });
  b.Cancel();
  b.Submit([&](bool canceled) {
    EXPECT_TRUE(canceled);  // b's cancellation must not leak into a
    b_ran.fetch_add(1);
  });
  a.Wait();
  b.Wait();
  EXPECT_EQ(a_ran.load(), 1);
  EXPECT_EQ(b_ran.load(), 1);
}

// ---------------------------------------------------------------------------
// Inline TaskPool: no workers; the queue runs on whoever drains it.
// ---------------------------------------------------------------------------

TEST(InlineTaskPool, SubmitOnlyQueues) {
  auto pool = TaskPool::Inline();
  EXPECT_TRUE(pool->is_inline());
  EXPECT_EQ(pool->thread_count(), 0u);
  int ran = 0;
  pool->Submit([&] { ++ran; });
  EXPECT_EQ(ran, 0);
  pool->RunUntilIdle();
  EXPECT_EQ(ran, 1);
}

TEST(InlineTaskPool, RunsOnTheCallerHighLaneFirst) {
  auto pool = TaskPool::Inline();
  std::vector<std::string> order;
  const std::thread::id caller = std::this_thread::get_id();
  auto task = [&](const char* name) {
    return [&order, &caller, name] {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(name);
    };
  };
  pool->Submit(task("n1"));
  pool->Submit(task("h1"), TaskPriority::kHigh);
  pool->Submit(task("n2"));
  pool->Submit(task("h2"), TaskPriority::kHigh);
  pool->RunUntilIdle();
  EXPECT_EQ(order, (std::vector<std::string>{"h1", "h2", "n1", "n2"}));
}

TEST(InlineTaskPool, DrainsTasksSubmittedByTasks) {
  auto pool = TaskPool::Inline();
  std::vector<std::string> order;
  pool->Submit([&] {
    order.push_back("n1");
    // Queued behind nothing on the high lane: runs before n2.
    pool->Submit([&] { order.push_back("h-from-n1"); }, TaskPriority::kHigh);
    pool->Submit([&] { order.push_back("n-from-n1"); });
  });
  pool->Submit([&] { order.push_back("n2"); });
  pool->RunUntilIdle();
  EXPECT_EQ(order, (std::vector<std::string>{"n1", "h-from-n1", "n2",
                                             "n-from-n1"}));
}

TEST(InlineTaskPool, PoolWithWorkersReturnsAtOnce) {
  TaskPool pool(1);
  EXPECT_FALSE(pool.is_inline());
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  TaskGroup group(&pool);
  group.Submit([&](bool) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return release; });
  });
  pool.RunUntilIdle();  // must not run, or wait for, the blocked task
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  group.Wait();
}

TEST(InlineTaskPool, TaskGroupWaitDrains) {
  auto pool = TaskPool::Inline();
  TaskGroup group(pool.get());
  int ran = 0;
  group.Submit([&](bool canceled) {
    EXPECT_FALSE(canceled);
    ++ran;
    group.Submit([&](bool) { ++ran; });
  });
  EXPECT_EQ(group.outstanding(), 1u);
  group.Wait();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(group.outstanding(), 0u);
}

TEST(InlineTaskPool, CanceledGroupDrainsAsSkips) {
  auto pool = TaskPool::Inline();
  TaskGroup group(pool.get());
  bool saw_cancel = false;
  group.Submit([&](bool canceled) { saw_cancel = canceled; });
  group.Cancel();
  group.Wait();
  EXPECT_TRUE(saw_cancel);
}

TEST(InlineTaskPool, DestructorsDrain) {
  int ran = 0;
  {
    auto pool = TaskPool::Inline();
    {
      TaskGroup group(pool.get());
      group.Submit([&](bool) { ++ran; });
    }  // ~TaskGroup waits, which drains
    EXPECT_EQ(ran, 1);
    pool->Submit([&] { ++ran; });
  }  // ~TaskPool drains what is still queued
  EXPECT_EQ(ran, 2);
}

}  // namespace
}  // namespace tc
