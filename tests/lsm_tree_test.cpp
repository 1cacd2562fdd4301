#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "common/rng.h"
#include "lsm/lsm_tree.h"

namespace tc {
namespace {

struct LsmFixture {
  std::shared_ptr<FileSystem> fs = MakeMemFileSystem();
  BufferCache cache{4096, 2048};

  std::unique_ptr<LsmTree> Open(size_t memtable_bytes = 8 * 1024,
                                CompressionKind codec = CompressionKind::kNone,
                                std::shared_ptr<MergePolicy> policy = nullptr) {
    LsmTreeOptions o;
    o.fs = fs;
    o.cache = &cache;
    o.dir = "lsm";
    o.name = "t";
    o.page_size = 4096;
    o.memtable_budget_bytes = memtable_bytes;
    o.compression = codec;
    o.merge_policy = policy ? std::move(policy)
                            : MakePrefixMergePolicy(1 << 20, 4);
    o.wal_sync_every = 0;
    return LsmTree::Open(std::move(o)).ValueOrDie();
  }
};

std::string S(const Buffer& b) { return std::string(b.begin(), b.end()); }

TEST(LsmTree, InsertGetAcrossFlush) {
  LsmFixture fx;
  auto t = fx.Open();
  ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "one").ok());
  ASSERT_TRUE(t->Insert(BtreeKey{2, 0}, "two").ok());
  EXPECT_EQ(S(*t->Get(BtreeKey{1, 0}).ValueOrDie()), "one");
  ASSERT_TRUE(t->Flush().ok());
  EXPECT_EQ(t->component_count(), 1u);
  auto view = t->View();
  EXPECT_TRUE(view.memtable().empty());
  EXPECT_EQ(S(*t->Get(BtreeKey{1, 0}).ValueOrDie()), "one");
  EXPECT_FALSE(t->Get(BtreeKey{3, 0}).ValueOrDie().has_value());
}

TEST(LsmTree, DeleteAddsAntiMatterThatShadowsDiskVersion) {
  LsmFixture fx;
  auto t = fx.Open();
  ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "v").ok());
  ASSERT_TRUE(t->Flush().ok());
  ASSERT_TRUE(t->Delete(BtreeKey{1, 0}, nullptr).ok());
  EXPECT_FALSE(t->Get(BtreeKey{1, 0}).ValueOrDie().has_value());
  ASSERT_TRUE(t->Flush().ok());
  // Two components: the newer one carries the anti-matter entry (§2.2).
  EXPECT_EQ(t->component_count(), 2u);
  auto view = t->View();
  EXPECT_EQ(view.components()[0]->meta().n_anti, 1u);
  EXPECT_FALSE(t->Get(BtreeKey{1, 0}).ValueOrDie().has_value());
}

TEST(LsmTree, MergeAnnihilatesAntiMatter) {
  LsmFixture fx;
  auto t = fx.Open(8 * 1024, CompressionKind::kNone, MakeNoMergePolicy());
  ASSERT_TRUE(t->Insert(BtreeKey{0, 0}, "kim").ok());
  ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "john").ok());
  ASSERT_TRUE(t->Flush().ok());  // C0
  ASSERT_TRUE(t->Delete(BtreeKey{0, 0}, nullptr).ok());
  ASSERT_TRUE(t->Insert(BtreeKey{2, 0}, "bob").ok());
  ASSERT_TRUE(t->Flush().ok());  // C1 with anti-matter for key 0 (Figure 4a)
  ASSERT_EQ(t->component_count(), 2u);

  // The merged view annihilates key 0 (Figure 4b): the anti-matter entry and
  // the shadowed record cancel out.
  LsmTree::Iterator it(t.get());
  ASSERT_TRUE(it.SeekToFirst().ok());
  std::vector<int64_t> keys;
  while (it.Valid()) {
    keys.push_back(it.key().a);
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 2}));

  // Component IDs are monotonically increasing, newest first (§2.2).
  auto view = t->View();
  EXPECT_GT(view.components()[0]->meta().cid_min,
            view.components()[1]->meta().cid_max);
}

TEST(LsmTree, MergedComponentIdSpansRange) {
  LsmFixture fx;
  auto t = fx.Open(8 * 1024, CompressionKind::kNone, MakeConstantMergePolicy(2));
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          t->Upsert(BtreeKey{round * 3 + i, 0}, "v" + std::to_string(round), nullptr)
              .ok());
    }
    ASSERT_TRUE(t->Flush().ok());
  }
  // Constant policy (k=2) merged everything into one [C1..C3] component.
  auto view = t->View();
  ASSERT_EQ(view.component_count(), 1u);
  EXPECT_EQ(view.components()[0]->meta().cid_min, 1u);
  EXPECT_EQ(view.components()[0]->meta().cid_max, 3u);
  EXPECT_EQ(view.components()[0]->meta().n_entries, 9u);
  EXPECT_GE(t->stats().merge_count, 1u);
}

TEST(LsmTree, UpsertCapturesOldDiskVersionOnce) {
  LsmFixture fx;
  LsmTreeOptions o;
  o.fs = fx.fs;
  o.cache = &fx.cache;
  o.dir = "lsm";
  o.name = "cap";
  o.page_size = 4096;
  o.memtable_budget_bytes = 1 << 20;
  o.capture_old_versions = true;
  o.wal_sync_every = 0;
  auto t = LsmTree::Open(std::move(o)).ValueOrDie();

  ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "disk_v1").ok());
  ASSERT_TRUE(t->Flush().ok());
  std::optional<Buffer> old;
  ASSERT_TRUE(t->Upsert(BtreeKey{1, 0}, "v2", &old).ok());
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(S(*old), "disk_v1");
  EXPECT_EQ(t->stats().old_version_lookups, 1u);
  // Second upsert: the memtable already owns the key; no disk lookup.
  old.reset();
  ASSERT_TRUE(t->Upsert(BtreeKey{1, 0}, "v3", &old).ok());
  EXPECT_EQ(t->stats().old_version_lookups, 1u);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(S(*old), "v2");  // previous visible (in-memory) version
}

TEST(LsmTree, KeyMayExistFilterSkipsLookups) {
  LsmFixture fx;
  LsmTreeOptions o;
  o.fs = fx.fs;
  o.cache = &fx.cache;
  o.dir = "lsm";
  o.name = "pkf";
  o.page_size = 4096;
  o.memtable_budget_bytes = 1 << 20;
  o.capture_old_versions = true;
  o.wal_sync_every = 0;
  o.key_may_exist = [](const BtreeKey&) { return false; };  // "all keys new"
  auto t = LsmTree::Open(std::move(o)).ValueOrDie();
  ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "a").ok());
  ASSERT_TRUE(t->Flush().ok());
  ASSERT_TRUE(t->Upsert(BtreeKey{2, 0}, "b", nullptr).ok());
  EXPECT_EQ(t->stats().old_version_lookups, 0u);  // filter said no
}

TEST(LsmTree, AutoFlushOnBudgetAndPrefixMergeBound) {
  LsmFixture fx;
  auto t = fx.Open(/*memtable=*/4 * 1024, CompressionKind::kNone,
                   MakePrefixMergePolicy(64 * 1024, 3));
  std::string payload(128, 'p');
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(t->Insert(BtreeKey{i, 0}, payload).ok());
  }
  EXPECT_GT(t->stats().flush_count, 1u);
  EXPECT_GT(t->stats().merge_count, 0u);
  // The prefix policy keeps the small-component count bounded.
  size_t small = 0;
  auto view = t->View();  // C++17 range-for would drop an inline temporary
  for (const auto& c : view.components()) {
    if (c->physical_bytes() < 64 * 1024) ++small;
  }
  EXPECT_LE(small, 4u);
  // Everything is still readable.
  for (int i = 0; i < 400; i += 37) {
    EXPECT_TRUE(t->Get(BtreeKey{i, 0}).ValueOrDie().has_value()) << i;
  }
}

TEST(LsmTree, ScanMergesNewestWins) {
  LsmFixture fx;
  auto t = fx.Open(1 << 20, CompressionKind::kNone, MakeNoMergePolicy());
  ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "old1").ok());
  ASSERT_TRUE(t->Insert(BtreeKey{2, 0}, "old2").ok());
  ASSERT_TRUE(t->Flush().ok());
  ASSERT_TRUE(t->Upsert(BtreeKey{1, 0}, "new1", nullptr).ok());
  ASSERT_TRUE(t->Insert(BtreeKey{3, 0}, "mem3").ok());  // stays in memtable

  LsmTree::Iterator it(t.get());
  ASSERT_TRUE(it.SeekToFirst().ok());
  std::map<int64_t, std::string> seen;
  while (it.Valid()) {
    seen[it.key().a] = std::string(it.payload());
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[1], "new1");
  EXPECT_EQ(seen[2], "old2");
  EXPECT_EQ(seen[3], "mem3");
}

TEST(LsmTree, PropertyMatchesModelUnderRandomOps) {
  LsmFixture fx;
  auto t = fx.Open(/*memtable=*/2 * 1024, CompressionKind::kSnappy,
                   MakePrefixMergePolicy(32 * 1024, 3));
  std::map<int64_t, std::string> model;
  Rng rng(5150);
  for (int op = 0; op < 3000; ++op) {
    int64_t key = static_cast<int64_t>(rng.Uniform(200));
    if (rng.Bernoulli(0.7)) {
      std::string v = "v" + std::to_string(op) + "_" + rng.AlphaString(rng.Uniform(40));
      ASSERT_TRUE(t->Upsert(BtreeKey{key, 0}, v, nullptr).ok());
      model[key] = v;
    } else {
      ASSERT_TRUE(t->Delete(BtreeKey{key, 0}, nullptr).ok());
      model.erase(key);
    }
  }
  // Point lookups agree with the model.
  for (int64_t k = 0; k < 200; ++k) {
    auto got = t->Get(BtreeKey{k, 0}).ValueOrDie();
    auto it = model.find(k);
    if (it == model.end()) {
      EXPECT_FALSE(got.has_value()) << k;
    } else {
      ASSERT_TRUE(got.has_value()) << k;
      EXPECT_EQ(S(*got), it->second) << k;
    }
  }
  // Scan agrees with the model.
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

// A policy that returns whatever range it is told to — the malformed-decision
// hardening must reject these with a Status instead of crashing.
class RiggedPolicy final : public MergePolicy {
 public:
  RiggedPolicy(size_t begin, size_t end) : begin_(begin), end_(end) {}
  const char* name() const override { return "rigged"; }
  MergeDecision Decide(const std::vector<uint64_t>&,
                       const std::vector<bool>&) const override {
    return {true, begin_, end_};
  }

 private:
  size_t begin_, end_;
};

TEST(LsmTree, MalformedMergeDecisionRejectedNotCrashed) {
  {
    // end < begin would underflow the width check.
    LsmFixture fx;
    auto t = fx.Open(8 * 1024, CompressionKind::kNone,
                     std::make_shared<RiggedPolicy>(3, 1));
    ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "v").ok());
    Status st = t->Flush();
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("invalid range"), std::string::npos);
  }
  {
    // end past the component vector would only trip TC_CHECK deeper down.
    LsmFixture fx;
    auto t = fx.Open(8 * 1024, CompressionKind::kNone,
                     std::make_shared<RiggedPolicy>(0, 99));
    ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "v").ok());
    EXPECT_FALSE(t->Flush().ok());
  }
  {
    // Degenerate-but-well-formed ranges are a quiet no-merge, not an error.
    LsmFixture fx;
    auto t = fx.Open(8 * 1024, CompressionKind::kNone,
                     std::make_shared<RiggedPolicy>(0, 0));
    ASSERT_TRUE(t->Insert(BtreeKey{1, 0}, "v").ok());
    EXPECT_TRUE(t->Flush().ok());
    EXPECT_EQ(t->component_count(), 1u);
  }
}

TEST(LsmTree, StatsTrackWriteAmpAndComponentHighWater) {
  LsmFixture fx;
  auto t = fx.Open(8 * 1024, CompressionKind::kNone, MakeConstantMergePolicy(2));
  std::string payload(128, 'p');
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(t->Insert(BtreeKey{round * 8 + i, 0}, payload).ok());
    }
    ASSERT_TRUE(t->Flush().ok());
  }
  // constant(2) merges everything whenever a flush pushes the count to 3, so
  // the high-water mark is exactly 3 (flushes 1-4 leave 1, 2, 3→1, 2 live).
  EXPECT_EQ(t->stats().component_count_high_water, 3u);
  EXPECT_EQ(t->component_count(), 2u);
  EXPECT_GT(t->stats().merge_count, 0u);
  EXPECT_GT(t->stats().WriteAmplification(), 1.0);
  // A tree that never flushed reports the 1.0 floor, not a division by zero.
  EXPECT_EQ(LsmStats().WriteAmplification(), 1.0);
}

// Readers racing a flushing/merging writer: Get pins a ReadView and searches
// it outside the tree locks, so a concurrent component swap can neither tear
// the walk nor make a committed key transiently disappear. The writer uses a
// tiny memtable so the component vector churns constantly under the readers.
// (concurrency_test.cpp carries the heavier snapshot/reclamation stress.)
TEST(LsmTree, ConcurrentReadersDuringFlushAndMerge) {
  LsmFixture fx;
  auto t = fx.Open(/*memtable=*/2 * 1024, CompressionKind::kNone,
                   MakeTieredMergePolicy(3, 3));
  constexpr int kKeys = 400;
  std::string payload(96, 'x');
  ASSERT_TRUE(t->Insert(BtreeKey{0, 0}, payload).ok());
  std::atomic<bool> done{false};
  std::atomic<int> written{1};
  std::atomic<bool> reader_failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(777 + r);
      while (!done.load(std::memory_order_acquire)) {
        int64_t k = static_cast<int64_t>(
            rng.Uniform(static_cast<uint64_t>(written.load())));
        auto got = t->Get(BtreeKey{k, 0});
        if (!got.ok() || !got.value().has_value()) {
          reader_failed.store(true);
          return;
        }
      }
    });
  }
  for (int i = 1; i < kKeys; ++i) {
    ASSERT_TRUE(t->Insert(BtreeKey{i, 0}, payload).ok());
    written.store(i + 1, std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_FALSE(reader_failed.load());
  EXPECT_GT(t->stats().merge_count, 0u);
}

TEST(LsmTree, BulkLoadBuildsSingleComponent) {
  LsmFixture fx;
  auto t = fx.Open();
  ASSERT_TRUE(t->BulkLoad([](std::function<Status(const BtreeKey&, std::string_view)>
                                 add) -> Status {
                 for (int i = 0; i < 100; ++i) {
                   TC_RETURN_IF_ERROR(add(BtreeKey{i, 0}, "blk" + std::to_string(i)));
                 }
                 return Status::OK();
               })
                  .ok());
  auto view = t->View();
  EXPECT_EQ(view.component_count(), 1u);
  EXPECT_EQ(view.components()[0]->meta().n_entries, 100u);
  EXPECT_EQ(S(*t->Get(BtreeKey{42, 0}).ValueOrDie()), "blk42");
  // Bulk load requires an empty tree.
  EXPECT_FALSE(t->BulkLoad([](auto) { return Status::OK(); }).ok());
}

}  // namespace
}  // namespace tc
