// Concurrency contract of the snapshot read API (ReadView):
//   * point lookups and scans never block on — and are never torn by —
//     concurrent flushes and merges;
//   * a view observes a coherent LSM state (snapshot isolation once its
//     memtable generation is retired, read-committed before);
//   * retired component files are deleted only after the last view
//     referencing them is released (deferred deletion);
//   * merges scheduled on a shared TaskPool lose no write: under
//     upsert/delete churn every key and a full scan agree with a std::map
//     model of the writes once the background work drains.
// With a pool, trees now also build flushed components on the executor and
// run disjoint merges concurrently, so every pool-backed test here doubles as
// coverage for that pipeline; merge_concurrency_test.cpp carries the
// deterministic >= 2-concurrent-merges and error-injection suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/task_pool.h"
#include "core/ingest.h"
#include "lsm/lsm_tree.h"
#include "tests/test_util.h"

namespace tc {
namespace {

std::string S(const Buffer& b) { return std::string(b.begin(), b.end()); }

std::string VersionedPayload(int64_t key, uint64_t version) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "k%" PRId64 ".v%" PRIu64 ".", key, version);
  // Pad so a handful of writes fills the tiny test memtables.
  return std::string(buf) + std::string(48, 'x');
}

/// Parses "k<key>.v<version>.xxx..." produced above; returns false on any
/// malformed (torn) payload.
bool ParseVersionedPayload(const std::string& s, int64_t* key, uint64_t* version) {
  return std::sscanf(s.c_str(), "k%" PRId64 ".v%" PRIu64 ".", key, version) == 2;
}

struct ConcurrencyFixture {
  std::shared_ptr<FileSystem> fs = MakeMemFileSystem();
  BufferCache cache{4096, 2048};
  // Declared before any tree user so trees (which wait out their scheduled
  // merges on destruction) die first.
  std::unique_ptr<TaskPool> pool;

  std::unique_ptr<LsmTree> Open(size_t memtable_bytes,
                                std::shared_ptr<MergePolicy> policy,
                                bool use_pool, const std::string& name = "t") {
    if (use_pool && pool == nullptr) pool = std::make_unique<TaskPool>(2);
    LsmTreeOptions o;
    o.fs = fs;
    o.cache = &cache;
    o.dir = "lsm";
    o.name = name;
    o.page_size = 4096;
    o.memtable_budget_bytes = memtable_bytes;
    o.merge_policy = std::move(policy);
    o.merge_pool = use_pool ? pool.get() : nullptr;
    o.wal_sync_every = 0;
    return LsmTree::Open(std::move(o)).ValueOrDie();
  }

  /// Number of live ".btree" data files of tree `name` on disk.
  size_t ComponentFilesOnDisk(const std::string& name = "t") {
    auto files = fs->List("lsm", name + ".c").ValueOrDie();
    size_t n = 0;
    for (const auto& f : files) {
      if (f.size() >= 6 && f.compare(f.size() - 6, 6, ".btree") == 0) ++n;
    }
    return n;
  }
};

// N reader threads issue point lookups and full scans while a writer upserts
// ascending versions of a fixed key set, flushing and merging constantly
// (tiny memtable, tiered policy, merges on a shared pool). Every read must
// return a well-formed payload for the requested key with a version that
// never goes backwards (tree state only moves forward, and each Get pins a
// fresh snapshot).
TEST(Concurrency, ReadersNeverTornDuringFlushAndMerge) {
  ConcurrencyFixture fx;
  auto t = fx.Open(2 * 1024, MakeTieredMergePolicy(3, 2), /*use_pool=*/true);
  constexpr int64_t kKeys = 48;
  constexpr uint64_t kRounds = 60;
  for (int64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(t->Upsert(BtreeKey{k, 0}, VersionedPayload(k, 1), nullptr).ok());
  }

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  auto fail = [&](const char* what) {
    failed.store(true);
    ADD_FAILURE() << what;
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(1000 + r);
      std::map<int64_t, uint64_t> last_seen;
      while (!done.load(std::memory_order_acquire) && !failed.load()) {
        int64_t k = static_cast<int64_t>(rng.Uniform(kKeys));
        auto got = t->Get(BtreeKey{k, 0});
        if (!got.ok() || !got.value().has_value()) return fail("lookup lost a key");
        int64_t pk = -1;
        uint64_t pv = 0;
        if (!ParseVersionedPayload(S(*got.value()), &pk, &pv) || pk != k) {
          return fail("torn or misdirected payload");
        }
        uint64_t& floor = last_seen[k];
        if (pv < floor) return fail("version went backwards");
        floor = pv;
      }
    });
  }
  std::thread scanner([&] {
    while (!done.load(std::memory_order_acquire) && !failed.load()) {
      LsmTree::Iterator it(t.get());
      if (!it.SeekToFirst().ok()) return fail("seek failed");
      int64_t prev = -1;
      size_t n = 0;
      while (it.Valid()) {
        if (it.key().a <= prev) return fail("scan keys not strictly increasing");
        prev = it.key().a;
        int64_t pk = -1;
        uint64_t pv = 0;
        if (!ParseVersionedPayload(std::string(it.payload()), &pk, &pv) ||
            pk != it.key().a) {
          return fail("scan surfaced a torn payload");
        }
        ++n;
        if (!it.Next().ok()) return fail("next failed");
      }
      if (n != kKeys) return fail("scan lost or duplicated keys");
    }
  });

  for (uint64_t v = 2; v <= kRounds && !failed.load(); ++v) {
    for (int64_t k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(t->Upsert(BtreeKey{k, 0}, VersionedPayload(k, v), nullptr).ok());
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  scanner.join();
  ASSERT_FALSE(failed.load());

  ASSERT_TRUE(t->Flush().ok());
  ASSERT_TRUE(t->WaitForMerges().ok());
  LsmStats stats = t->stats();
  EXPECT_GT(stats.merge_count, 0u);
  // The whole run went through the pooled pipeline: every flush was queued
  // as a sealed generation (never built on the writer thread).
  EXPECT_GE(stats.flush_queue_high_water, 1u);
  for (int64_t k = 0; k < kKeys; ++k) {
    auto got = t->Get(BtreeKey{k, 0}).ValueOrDie();
    ASSERT_TRUE(got.has_value()) << k;
    EXPECT_EQ(S(*got), VersionedPayload(k, kRounds)) << k;
  }
}

// A view pinned before a merge keeps the merge inputs' files alive and
// readable; the files disappear exactly when the last reference releases.
TEST(Concurrency, DeferredDeletionWaitsForLastView) {
  ConcurrencyFixture fx;
  auto t = fx.Open(1 << 20, MakeConstantMergePolicy(2), /*use_pool=*/false);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 4; ++i) {
      int64_t k = round * 4 + i;
      ASSERT_TRUE(t->Insert(BtreeKey{k, 0}, "r" + std::to_string(round)).ok());
    }
    ASSERT_TRUE(t->Flush().ok());
  }
  ASSERT_EQ(t->component_count(), 2u);
  ASSERT_EQ(fx.ComponentFilesOnDisk(), 2u);

  // Pin the pre-merge structure.
  auto pinned = t->AcquireView();
  ASSERT_EQ(pinned->component_count(), 2u);

  // Third flush trips constant(2): everything merges into one component and
  // the three inputs retire. The two components `pinned` references must
  // SURVIVE; the third input (flushed after the pin, so referenced by nobody)
  // reclaims immediately.
  for (int i = 8; i < 12; ++i) {
    ASSERT_TRUE(t->Insert(BtreeKey{i, 0}, "r2").ok());
  }
  ASSERT_TRUE(t->Flush().ok());
  ASSERT_EQ(t->component_count(), 1u);
  EXPECT_EQ(fx.ComponentFilesOnDisk(), 3u);  // 1 live + 2 retired-but-pinned

  // The pinned snapshot still resolves lookups from the retired components.
  EXPECT_EQ(S(*pinned->Get(BtreeKey{0, 0}).ValueOrDie()), "r0");
  EXPECT_EQ(S(*pinned->Get(BtreeKey{7, 0}).ValueOrDie()), "r1");
  // The r2 writes landed in the generation `pinned` had pinned while it was
  // still live, so they are visible (read-committed in memory) even though
  // the view never sees the post-pin component structure.
  EXPECT_EQ(S(*pinned->Get(BtreeKey{9, 0}).ValueOrDie()), "r2");
  EXPECT_TRUE(t->Get(BtreeKey{9, 0}).ValueOrDie().has_value());

  // Last reference gone -> deferred deletion reclaims the three inputs.
  pinned.reset();
  EXPECT_EQ(fx.ComponentFilesOnDisk(), 1u);
  EXPECT_EQ(S(*t->Get(BtreeKey{0, 0}).ValueOrDie()), "r0");
}

// The documented visibility contract: a view sees writes committed before
// acquisition, plus writes into its still-live memtable generation; a flush
// freezes it for good.
TEST(Concurrency, ViewFreezesWhenItsGenerationRetires) {
  ConcurrencyFixture fx;
  auto t = fx.Open(1 << 20, MakeNoMergePolicy(), /*use_pool=*/false);
  ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "one").ok());
  auto view = t->AcquireView();
  EXPECT_EQ(S(*view->Get(BtreeKey{1, 0}).ValueOrDie()), "one");

  // Same generation, still live: read-committed visibility.
  ASSERT_TRUE(t->Insert(BtreeKey{2, 0}, "two").ok());
  EXPECT_EQ(S(*view->Get(BtreeKey{2, 0}).ValueOrDie()), "two");

  // Flush retires the generation; later writes are invisible to the view.
  ASSERT_TRUE(t->Flush().ok());
  ASSERT_TRUE(t->Insert(BtreeKey{3, 0}, "three").ok());
  ASSERT_TRUE(t->Delete(BtreeKey{1, 0}, nullptr).ok());
  EXPECT_FALSE(view->Get(BtreeKey{3, 0}).ValueOrDie().has_value());
  EXPECT_EQ(S(*view->Get(BtreeKey{1, 0}).ValueOrDie()), "one");  // pre-delete
  EXPECT_FALSE(t->Get(BtreeKey{1, 0}).ValueOrDie().has_value());

  // Iterators over the frozen view share its state.
  LsmTree::Iterator it(view);
  ASSERT_TRUE(it.SeekToFirst().ok());
  std::vector<int64_t> keys;
  while (it.Valid()) {
    keys.push_back(it.key().a);
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 2}));
}

// Pool-scheduled merges must be semantically invisible: randomized
// upsert/delete churn against an in-memory model, then every key and a full
// scan agree with the model once the background work drains.
TEST(Concurrency, PoolMergesMatchModelUnderChurn) {
  ConcurrencyFixture fx;
  auto t = fx.Open(2 * 1024, MakeTieredMergePolicy(3, 2), /*use_pool=*/true);
  std::map<int64_t, std::string> model;
  Rng rng(4242);
  for (int op = 0; op < 3000; ++op) {
    int64_t key = static_cast<int64_t>(rng.Uniform(150));
    if (rng.Bernoulli(0.75)) {
      std::string v = "v" + std::to_string(op) + "_" + rng.AlphaString(rng.Uniform(30));
      ASSERT_TRUE(t->Upsert(BtreeKey{key, 0}, v, nullptr).ok());
      model[key] = v;
    } else {
      ASSERT_TRUE(t->Delete(BtreeKey{key, 0}, nullptr).ok());
      model.erase(key);
    }
  }
  ASSERT_TRUE(t->Flush().ok());
  ASSERT_TRUE(t->WaitForMerges().ok());
  EXPECT_GT(t->stats().merge_count, 0u);

  for (int64_t k = 0; k < 150; ++k) {
    auto got = t->Get(BtreeKey{k, 0}).ValueOrDie();
    auto it = model.find(k);
    if (it == model.end()) {
      EXPECT_FALSE(got.has_value()) << k;
    } else {
      ASSERT_TRUE(got.has_value()) << k;
      EXPECT_EQ(S(*got), it->second) << k;
    }
  }
  LsmTree::Iterator it(t.get());
  ASSERT_TRUE(it.SeekToFirst().ok());
  auto mit = model.begin();
  while (it.Valid() && mit != model.end()) {
    EXPECT_EQ(it.key().a, mit->first);
    EXPECT_EQ(std::string(it.payload()), mit->second);
    ASSERT_TRUE(it.Next().ok());
    ++mit;
  }
  EXPECT_FALSE(it.Valid());
  EXPECT_EQ(mit, model.end());
}

// End-to-end reclamation under reader/writer churn: once the dust settles and
// every view is gone, the files on disk are exactly the live components'.
TEST(Concurrency, AllRetiredFilesEventuallyReclaimed) {
  ConcurrencyFixture fx;
  auto t = fx.Open(2 * 1024, MakeTieredMergePolicy(3, 2), /*use_pool=*/true);
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(77 + r);
      while (!done.load(std::memory_order_acquire)) {
        // Hold snapshots across several lookups so merges retire components
        // under live pins.
        auto view = t->AcquireView();
        for (int i = 0; i < 16; ++i) {
          auto got = view->Get(BtreeKey{static_cast<int64_t>(rng.Uniform(200)), 0});
          if (!got.ok()) {
            failed.store(true);
            return;
          }
        }
      }
    });
  }
  std::string payload(64, 'p');
  for (int i = 0; i < 1200; ++i) {
    ASSERT_TRUE(t->Upsert(BtreeKey{i % 200, 0}, payload, nullptr).ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  ASSERT_FALSE(failed.load());
  ASSERT_TRUE(t->Flush().ok());
  ASSERT_TRUE(t->WaitForMerges().ok());
  EXPECT_GT(t->stats().merge_count, 0u);
  // All views are gone; a final snapshot acquire/release drains leftovers.
  t->View();
  EXPECT_EQ(fx.ComponentFilesOnDisk(), t->component_count());
}

// DestroyAll defers deletion of pinned components instead of yanking files
// out from under live snapshots.
TEST(Concurrency, DestroyAllRespectsLiveViews) {
  ConcurrencyFixture fx;
  auto t = fx.Open(1 << 20, MakeNoMergePolicy(), /*use_pool=*/false);
  ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "keep").ok());
  ASSERT_TRUE(t->Flush().ok());
  auto pinned = t->AcquireView();
  ASSERT_TRUE(t->DestroyAll().ok());
  // The tree is empty, but the pinned snapshot still reads its component.
  EXPECT_EQ(t->component_count(), 0u);
  EXPECT_EQ(fx.ComponentFilesOnDisk(), 1u);
  EXPECT_EQ(S(*pinned->Get(BtreeKey{1, 0}).ValueOrDie()), "keep");
  pinned.reset();
  EXPECT_EQ(fx.ComponentFilesOnDisk(), 0u);
}

// Point-lookup storm against concurrent flushes and merges with per-component
// bloom filters: miss-heavy readers hammer the filter fast path while the
// writer constantly retires components under them. Filters ride inside the
// components a view pins, so a pinned filter must stay valid (and keep giving
// correct answers) even after its component retires into the reclaimer.
TEST(Concurrency, FilteredLookupStormDuringFlushAndMerge) {
  ConcurrencyFixture fx;
  auto t = fx.Open(2 * 1024, MakeTieredMergePolicy(3, 2), /*use_pool=*/true);
  constexpr int64_t kKeys = 64;  // even keys present, odd keys always absent
  constexpr uint64_t kRounds = 40;
  for (int64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(
        t->Upsert(BtreeKey{2 * k, 0}, VersionedPayload(2 * k, 1), nullptr).ok());
  }

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  auto fail = [&](const char* what) {
    failed.store(true);
    ADD_FAILURE() << what;
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(9000 + r);
      while (!done.load(std::memory_order_acquire) && !failed.load()) {
        // Hold each view across a batch of lookups so merges retire filtered
        // components while the view still pins them.
        auto view = t->AcquireView();
        for (int i = 0; i < 24; ++i) {
          int64_t k = static_cast<int64_t>(rng.Uniform(2 * kKeys));
          auto got = view->Get(BtreeKey{k, 0});
          if (!got.ok()) return fail("lookup errored under churn");
          if (k % 2 != 0) {
            if (got.value().has_value()) return fail("filter invented a key");
            continue;
          }
          if (!got.value().has_value()) return fail("lookup lost a present key");
          int64_t pk = -1;
          uint64_t pv = 0;
          if (!ParseVersionedPayload(S(*got.value()), &pk, &pv) || pk != k) {
            return fail("torn payload through the filter fast path");
          }
        }
      }
    });
  }

  for (uint64_t v = 2; v <= kRounds && !failed.load(); ++v) {
    for (int64_t k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(
          t->Upsert(BtreeKey{2 * k, 0}, VersionedPayload(2 * k, v), nullptr)
              .ok());
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  ASSERT_FALSE(failed.load());

  ASSERT_TRUE(t->Flush().ok());
  ASSERT_TRUE(t->WaitForMerges().ok());
  LsmStats stats = t->stats();
  EXPECT_GT(stats.merge_count, 0u);
  // The storm actually exercised the filters: probes happened, and the odd
  // keys were overwhelmingly answered without touching any component B-tree.
  EXPECT_GT(stats.filter_checks, 0u);
  EXPECT_GT(stats.filter_negatives, 0u);
  for (int64_t k = 0; k < kKeys; ++k) {
    auto got = t->Get(BtreeKey{2 * k, 0}).ValueOrDie();
    ASSERT_TRUE(got.has_value()) << k;
    EXPECT_EQ(S(*got), VersionedPayload(2 * k, kRounds)) << k;
  }
}

// A view pinned BEFORE a merge keeps using the retired components' filters
// after the merge installs and the inputs move to the reclaimer: lookups
// through the pinned view stay correct and still consult filters.
TEST(Concurrency, PinnedViewKeepsRetiredFiltersValid) {
  ConcurrencyFixture fx;
  auto t = fx.Open(1 << 20, MakeConstantMergePolicy(2), /*use_pool=*/false);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 8; ++i) {
      int64_t k = round * 8 + i;
      ASSERT_TRUE(t->Insert(BtreeKey{k, 0}, "r" + std::to_string(round)).ok());
    }
    ASSERT_TRUE(t->Flush().ok());
  }
  auto pinned = t->AcquireView();
  ASSERT_EQ(pinned->component_count(), 2u);
  for (size_t i = 0; i < pinned->component_count(); ++i) {
    ASSERT_TRUE(pinned->components()[i]->has_filter());
  }

  // Trip the merge: both inputs retire into the reclaimer, held only by the
  // pinned view.
  for (int i = 16; i < 20; ++i) {
    ASSERT_TRUE(t->Insert(BtreeKey{i, 0}, "r2").ok());
  }
  ASSERT_TRUE(t->Flush().ok());
  ASSERT_EQ(t->component_count(), 1u);

  uint64_t checks_before = t->stats().filter_checks;
  // Present keys resolve through the retired components' filters...
  EXPECT_EQ(S(*pinned->Get(BtreeKey{0, 0}).ValueOrDie()), "r0");
  EXPECT_EQ(S(*pinned->Get(BtreeKey{15, 0}).ValueOrDie()), "r1");
  // ...and in-fence misses are still pruned by them ({3,1} sorts between the
  // present keys {3,0} and {4,0}, so fences cannot shortcut it).
  EXPECT_FALSE(pinned->Get(BtreeKey{3, 1}).ValueOrDie().has_value());
  EXPECT_GT(t->stats().filter_checks, checks_before);

  pinned.reset();
  EXPECT_EQ(fx.ComponentFilesOnDisk(), 1u);
}

// Ingest storm through the group-committing feed queue: 4 producers submit
// whole batches to an IngestFrontEnd targeting one partition (so batch ==
// commit chunk) while readers range-scan individual batches on pinned
// snapshots and flush builds + merges run on a shared pool. Every batch is
// applied in ONE memtable critical section and never split across
// generations, and an Iterator copies the in-memory entries at seek time —
// so a scan must observe each batch either completely or not at all.
TEST(Concurrency, IngestStormWholeBatchVisibility) {
  TaskPool pool(3);
  testutil::DatasetFixture fx;
  DatasetOptions o = testutil::SmallOptions(SchemaMode::kInferred, /*memtable_kb=*/32);
  o.merge_pool = &pool;
  ASSERT_TRUE(fx.Open(std::move(o), 1).ok());

  constexpr int kProducers = 4;
  constexpr int kBatchesPerProducer = 24;
  constexpr int kBatch = 32;
  constexpr int kTotalBatches = kProducers * kBatchesPerProducer;

  GroupCommitConfig gc;
  gc.max_records = 64;  // groups span a couple of chunks
  gc.max_usecs = 500;
  IngestFrontEnd front_end(fx.dataset.get(), gc, /*queue_capacity=*/2);

  std::atomic<bool> done{false};
  std::atomic<int> torn_batches{0};
  std::atomic<int> producer_failures{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(1000 + static_cast<uint64_t>(r));
      while (!done.load(std::memory_order_acquire)) {
        int64_t b = static_cast<int64_t>(rng.Uniform(kTotalBatches));
        int64_t lo = b * kBatch;
        int64_t hi = lo + kBatch - 1;
        auto view = fx.dataset->partition(0)->primary()->AcquireView();
        LsmTree::Iterator it(view);
        it.set_upper_bound(BtreeKey{hi, 0});
        if (!it.Seek(BtreeKey{lo, 0}).ok()) continue;
        int count = 0;
        while (it.Valid() && it.key().a <= hi) {
          ++count;
          if (!it.Next().ok()) break;
        }
        if (count != 0 && count != kBatch) torn_batches.fetch_add(1);
      }
    });
  }

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(static_cast<uint64_t>(p));
      std::vector<IngestTicket> outstanding;
      for (int i = 0; i < kBatchesPerProducer; ++i) {
        int64_t b = p * kBatchesPerProducer + i;
        std::vector<AdmValue> batch;
        batch.reserve(kBatch);
        for (int64_t k = b * kBatch; k < (b + 1) * kBatch; ++k) {
          AdmValue rec = AdmValue::Object();
          rec.AddField("id", AdmValue::BigInt(k));
          rec.AddField("pad", AdmValue::String(rng.AlphaString(40)));
          batch.push_back(std::move(rec));
        }
        outstanding.push_back(front_end.Submit(std::move(batch)));
        if (outstanding.size() >= 3) {
          if (!outstanding.front().Wait().ok()) producer_failures.fetch_add(1);
          outstanding.erase(outstanding.begin());
        }
      }
      for (auto& t : outstanding) {
        if (!t.Wait().ok()) producer_failures.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(front_end.Drain().ok());
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn_batches.load(), 0);
  EXPECT_EQ(producer_failures.load(), 0);
  // Completeness: every record of every acknowledged batch is in the dataset.
  for (int64_t k = 0; k < static_cast<int64_t>(kTotalBatches) * kBatch; ++k) {
    ASSERT_TRUE(fx.dataset->Get(k).ValueOrDie().has_value()) << k;
  }
  ASSERT_TRUE(fx.dataset->WaitForBackgroundWork().ok());
}

}  // namespace
}  // namespace tc
