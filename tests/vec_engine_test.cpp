// Tests for the vectorized execution tier: ColumnVector storage adaptation
// (including the list family of [*] paths), vec-vs-row equivalence over the
// paper queries and randomized records (the bridge must be invisible to
// sinks), and the partitioned hash join checked against a nested-loop reference under
// randomized partition counts, key skew, budget-forced multi-wave execution,
// and concurrent ingest.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "query/executor.h"
#include "query/paper_queries.h"
#include "query/planner.h"
#include "query/vec/column_batch.h"
#include "query/vec/hash_join.h"
#include "query/vec/vec_operator.h"
#include "tests/test_util.h"
#include "workload/workload.h"

namespace tc {
namespace {

using testutil::DatasetFixture;
using testutil::SmallOptions;

// ---------------------------------------------------------------------------
// ColumnVector storage adaptation
// ---------------------------------------------------------------------------

TEST(ColumnVector, IntFamilyStaysTyped) {
  ColumnVector c;
  c.AppendInt64(AdmTag::kBigInt, 42);
  c.AppendInt64(AdmTag::kSmallInt, -7);
  c.AppendInt64(AdmTag::kTinyInt, 3);
  EXPECT_EQ(c.kind(), ColumnVector::Kind::kInt64);
  EXPECT_EQ(c.Int64At(0), 42);
  EXPECT_EQ(c.Int64At(1), -7);
  // ValueAt reconstructs the exact original tag, not a widened one.
  EXPECT_EQ(c.ValueAt(1).tag(), AdmTag::kSmallInt);
  EXPECT_EQ(c.ValueAt(1).int_value(), -7);
  EXPECT_EQ(c.ValueAt(2).tag(), AdmTag::kTinyInt);
}

TEST(ColumnVector, ValuelessPrefixBackfillsIntoTypedStorage) {
  ColumnVector c;
  c.AppendMissing();
  c.AppendNull();
  c.AppendInt64(AdmTag::kBigInt, 9);
  EXPECT_EQ(c.kind(), ColumnVector::Kind::kInt64);
  EXPECT_FALSE(c.HasValueAt(0));
  EXPECT_FALSE(c.HasValueAt(1));
  EXPECT_TRUE(c.HasValueAt(2));
  EXPECT_EQ(c.ValueAt(0).tag(), AdmTag::kMissing);
  EXPECT_EQ(c.ValueAt(1).tag(), AdmTag::kNull);
  EXPECT_EQ(c.Int64At(2), 9);
}

TEST(ColumnVector, FamilyMismatchDemotesLosslessly) {
  ColumnVector c;
  c.AppendInt64(AdmTag::kBigInt, 1);
  c.AppendString(AdmTag::kString, "abc");
  c.AppendDouble(AdmTag::kDouble, 2.5);
  EXPECT_EQ(c.kind(), ColumnVector::Kind::kValue);
  EXPECT_EQ(c.ValueAt(0).tag(), AdmTag::kBigInt);
  EXPECT_EQ(c.ValueAt(0).int_value(), 1);
  EXPECT_EQ(c.ValueAt(1).string_value(), "abc");
  EXPECT_DOUBLE_EQ(c.ValueAt(2).double_value(), 2.5);
}

TEST(ColumnVector, StringArenaRoundTrip) {
  ColumnVector c;
  c.AppendString(AdmTag::kString, "hello");
  c.AppendMissing();
  c.AppendString(AdmTag::kString, "");
  c.AppendString(AdmTag::kString, "world!");
  EXPECT_EQ(c.kind(), ColumnVector::Kind::kString);
  EXPECT_EQ(c.StringAt(0), "hello");
  EXPECT_EQ(c.StringAt(2), "");
  EXPECT_EQ(c.StringAt(3), "world!");
  EXPECT_EQ(c.ValueAt(3).string_value(), "world!");
}

TEST(ColumnVector, AppendValueNestedDemotes) {
  ColumnVector c;
  AdmValue obj = AdmValue::Object();
  obj.AddField("x", AdmValue::BigInt(5));
  c.AppendValue(obj);
  EXPECT_EQ(c.kind(), ColumnVector::Kind::kValue);
  AdmValue round_trip = c.ValueAt(0);
  const AdmValue* x = round_trip.FindField("x");
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->int_value(), 5);
}

TEST(ColumnVector, AppendFromCopiesTypedRows) {
  ColumnVector src;
  src.AppendInt64(AdmTag::kBigInt, 10);
  src.AppendNull();
  src.AppendInt64(AdmTag::kInt, 20);
  ColumnVector dst;
  dst.AppendFrom(src, 2);
  dst.AppendFrom(src, 1);
  dst.AppendFrom(src, 0);
  EXPECT_EQ(dst.kind(), ColumnVector::Kind::kInt64);
  EXPECT_EQ(dst.Int64At(0), 20);
  EXPECT_EQ(dst.ValueAt(0).tag(), AdmTag::kInt);
  EXPECT_FALSE(dst.HasValueAt(1));
  EXPECT_EQ(dst.Int64At(2), 10);
}

// ---------------------------------------------------------------------------
// ColumnVector list family ([*] paths)
// ---------------------------------------------------------------------------

AdmValue ArrayOf(std::vector<AdmValue> items, AdmTag tag = AdmTag::kArray) {
  AdmValue a(tag);
  for (AdmValue& v : items) a.Append(std::move(v));
  return a;
}

TEST(ColumnVectorList, TypedChildRoundTrip) {
  ColumnVector c;
  ColumnVector* items = c.BeginList(AdmTag::kArray);
  items->AppendDouble(AdmTag::kDouble, 1.5);
  items->AppendDouble(AdmTag::kDouble, -2.0);
  c.EndList();
  c.BeginList(AdmTag::kArray);  // empty list row
  c.EndList();
  items = c.BeginList(AdmTag::kArray);
  items->AppendDouble(AdmTag::kFloat, 3.0);
  c.EndList();
  EXPECT_EQ(c.kind(), ColumnVector::Kind::kList);
  EXPECT_EQ(c.list_items().kind(), ColumnVector::Kind::kDouble);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.ListBegin(1), 2u);
  EXPECT_EQ(c.ListEnd(1), 2u);
  EXPECT_EQ(c.ListEnd(2), 3u);
  EXPECT_EQ(c.ValueAt(0), ArrayOf({AdmValue::Double(1.5), AdmValue::Double(-2.0)}));
  EXPECT_EQ(c.ValueAt(1), AdmValue::Array());
  EXPECT_EQ(c.ValueAt(2), ArrayOf({AdmValue::Float(3.0f)}));
  EXPECT_EQ(c.ValueAt(2).item(0).tag(), AdmTag::kFloat);
}

TEST(ColumnVectorList, MixedItemsDemoteOnlyTheChild) {
  ColumnVector c;
  AdmValue first = ArrayOf({AdmValue::BigInt(7), AdmValue::String("x")});
  AdmValue second = ArrayOf({AdmValue::Null(), AdmValue::Point(1, 2),
                             AdmValue::TinyInt(-3)});
  c.AppendValue(first);
  c.AppendValue(second);
  EXPECT_EQ(c.kind(), ColumnVector::Kind::kList);
  EXPECT_EQ(c.list_items().kind(), ColumnVector::Kind::kValue);
  EXPECT_EQ(c.ValueAt(0), first);
  EXPECT_EQ(c.ValueAt(1), second);
  EXPECT_EQ(c.ValueAt(1).item(2).tag(), AdmTag::kTinyInt);
}

TEST(ColumnVectorList, MissingAndNullRowsKeepTheFamily) {
  ColumnVector c;
  c.AppendMissing();
  c.AppendNull();
  ColumnVector* items = c.BeginList(AdmTag::kMultiset);
  items->AppendString(AdmTag::kString, "a");
  items->AppendNull();
  c.EndList();
  c.AppendMissing();
  EXPECT_EQ(c.kind(), ColumnVector::Kind::kList);
  EXPECT_EQ(c.list_items().kind(), ColumnVector::Kind::kString);
  EXPECT_FALSE(c.HasValueAt(0));
  EXPECT_FALSE(c.HasValueAt(1));
  EXPECT_TRUE(c.HasValueAt(2));
  EXPECT_FALSE(c.HasValueAt(3));
  EXPECT_EQ(c.ValueAt(0).tag(), AdmTag::kMissing);
  EXPECT_EQ(c.ValueAt(1).tag(), AdmTag::kNull);
  EXPECT_EQ(c.ValueAt(3).tag(), AdmTag::kMissing);
  // Exact collection tag and item tags survive.
  AdmValue want = ArrayOf({AdmValue::String("a"), AdmValue::Null()},
                          AdmTag::kMultiset);
  EXPECT_EQ(c.ValueAt(2), want);
  EXPECT_EQ(c.ValueAt(2).tag(), AdmTag::kMultiset);
  EXPECT_EQ(c.TakeValueAt(2), want);
}

TEST(ColumnVectorList, NonListRowsDemoteTheColumn) {
  AdmValue list = ArrayOf({AdmValue::BigInt(1), AdmValue::BigInt(2)});
  AdmValue nested = ArrayOf({AdmValue::BigInt(3), ArrayOf({AdmValue::BigInt(4)})});
  {
    ColumnVector c;  // list row, then a scalar row
    c.AppendValue(list);
    c.AppendInt64(AdmTag::kBigInt, 9);
    EXPECT_EQ(c.kind(), ColumnVector::Kind::kValue);
    EXPECT_EQ(c.ValueAt(0), list);
    EXPECT_EQ(c.ValueAt(1), AdmValue::BigInt(9));
  }
  {
    ColumnVector c;  // list row, then a list with a nested item
    c.AppendValue(list);
    c.AppendValue(nested);
    EXPECT_EQ(c.kind(), ColumnVector::Kind::kValue);
    EXPECT_EQ(c.ValueAt(0), list);
    EXPECT_EQ(c.ValueAt(1), nested);
  }
  {
    ColumnVector c;  // a demoted column still takes BeginList rows
    c.AppendString(AdmTag::kString, "s");
    ColumnVector* items = c.BeginList(AdmTag::kArray);
    items->AppendInt64(AdmTag::kBigInt, 1);
    items->AppendInt64(AdmTag::kBigInt, 2);
    c.EndList();
    c.AppendValue(list);
    EXPECT_EQ(c.kind(), ColumnVector::Kind::kValue);
    EXPECT_EQ(c.ValueAt(0), AdmValue::String("s"));
    EXPECT_EQ(c.ValueAt(1), list);
    EXPECT_EQ(c.ValueAt(2), list);
    EXPECT_EQ(c.TakeValueAt(1), list);
  }
}

TEST(ColumnVectorList, AppendFromCopiesListRows) {
  ColumnVector src;
  src.AppendValue(ArrayOf({AdmValue::Double(1), AdmValue::Double(2)}));
  src.AppendNull();
  src.AppendValue(AdmValue::Array());
  src.AppendValue(ArrayOf({AdmValue::Double(3)}));
  ColumnVector dst;
  for (size_t i : {3u, 1u, 0u, 2u}) dst.AppendFrom(src, i);
  EXPECT_EQ(dst.kind(), ColumnVector::Kind::kList);
  EXPECT_EQ(dst.list_items().kind(), ColumnVector::Kind::kDouble);
  EXPECT_EQ(dst.ValueAt(0), src.ValueAt(3));
  EXPECT_EQ(dst.ValueAt(1).tag(), AdmTag::kNull);
  EXPECT_EQ(dst.ValueAt(2), src.ValueAt(0));
  EXPECT_EQ(dst.ValueAt(3), AdmValue::Array());
  // Into a demoted column: the rows arrive as built arrays.
  ColumnVector mixed;
  mixed.AppendInt64(AdmTag::kBigInt, 5);
  mixed.AppendFrom(src, 0);
  EXPECT_EQ(mixed.kind(), ColumnVector::Kind::kValue);
  EXPECT_EQ(mixed.ValueAt(1), src.ValueAt(0));
  // A typed list column's footprint does not depend on materialized values.
  EXPECT_GE(src.ByteSize(), 3 * sizeof(double));
}

TEST(ColumnBatch, SelectionVectorDrivesActiveRows) {
  ColumnBatch b;
  b.Reset(1);
  for (int i = 0; i < 5; ++i) b.cols[0].AppendInt64(AdmTag::kBigInt, i);
  b.rows = 5;
  EXPECT_EQ(b.ActiveRows(), 5u);
  b.sel = {1, 3};
  b.sel_active = true;
  EXPECT_EQ(b.ActiveRows(), 2u);
  std::vector<int64_t> seen;
  b.ForEachActive([&](size_t r) { seen.push_back(b.cols[0].Int64At(r)); });
  EXPECT_EQ(seen, (std::vector<int64_t>{1, 3}));
}

// ---------------------------------------------------------------------------
// Vec-vs-row paper-query equivalence: toggling QueryOptions::vectorized (and
// shrinking the batch size to force many batch boundaries) must not change
// any query result.
// ---------------------------------------------------------------------------

TEST(VecRowEquivalence, PaperQueriesAgree) {
  struct Case {
    const char* workload;
    int n;
  };
  for (const Case& cs : {Case{"twitter", 60}, Case{"sensors", 24}, Case{"wos", 40}}) {
    DatasetFixture fx;
    DatasetOptions o = SmallOptions(SchemaMode::kInferred, 128);
    auto gen = MakeGenerator(cs.workload, 42);
    ASSERT_TRUE(fx.Open(std::move(o), 2).ok());
    for (int i = 0; i < cs.n; ++i) {
      ASSERT_TRUE(fx.dataset->Insert(gen->NextRecord()).ok());
    }
    ASSERT_TRUE(fx.dataset->FlushAll().ok());
    for (int q = 1; q <= 4; ++q) {
      QueryOptions row;
      row.vectorized = false;
      auto ref = RunPaperQuery(cs.workload, q, fx.dataset.get(), row);
      ASSERT_TRUE(ref.ok()) << cs.workload << " q" << q << ": "
                            << ref.status().ToString();
      for (size_t batch_rows : {size_t{1}, size_t{7}, size_t{1024}}) {
        QueryOptions vec;
        vec.vectorized = true;
        vec.vec_batch_rows = batch_rows;
        auto got = RunPaperQuery(cs.workload, q, fx.dataset.get(), vec);
        ASSERT_TRUE(got.ok()) << cs.workload << " q" << q;
        EXPECT_EQ(got.value().summary, ref.value().summary)
            << cs.workload << " q" << q << " batch_rows=" << batch_rows;
        EXPECT_EQ(got.value().result_hash, ref.value().result_hash)
            << cs.workload << " q" << q << " batch_rows=" << batch_rows;
        EXPECT_EQ(got.value().stats.rows_scanned, ref.value().stats.rows_scanned);
      }
    }
  }
}

TEST(VecRowEquivalence, VectorizedRunsReportOperatorCounters) {
  DatasetFixture fx;
  auto gen = MakeGenerator("twitter", 7);
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred, 128), 2).ok());
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(fx.dataset->Insert(gen->NextRecord()).ok());
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  QueryOptions vec;
  vec.vectorized = true;
  auto res = TwitterQ2(fx.dataset.get(), vec).ValueOrDie();
  bool saw_scan = false;
  for (const QueryOpCounters& op : res.stats.operators) {
    if (op.name == "scan") {
      saw_scan = true;
      EXPECT_GT(op.batches, 0u);
      EXPECT_EQ(op.rows, 30u);
    }
  }
  EXPECT_TRUE(saw_scan);
  QueryOptions row;
  row.vectorized = false;
  auto rres = TwitterQ2(fx.dataset.get(), row).ValueOrDie();
  EXPECT_TRUE(rres.stats.operators.empty());
}

// IN-list predicates through all four (vectorized × pushdown) paths: the
// lowered vector matcher, the vec filter, and the row-level fallback must
// select the same rows.
TEST(VecRowEquivalence, InListPredicateAllPathsAgree) {
  DatasetFixture fx;
  auto gen = MakeGenerator("twitter", 11);
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred, 128), 2).ok());
  std::vector<AdmValue> recs;
  for (int i = 0; i < 80; ++i) {
    AdmValue r = gen->NextRecord();
    RemapTweetUserId(&r, i % 11);  // small uid universe so the IN list hits
    recs.push_back(r);
    ASSERT_TRUE(fx.dataset->Insert(recs.back()).ok());
  }
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  auto pred = ScanPredicate::And({ScanPredicate::In(
      "user.id", {AdmValue::BigInt(2), AdmValue::BigInt(5), AdmValue::BigInt(7)})});
  size_t expected = 0;
  for (const AdmValue& r : recs) {
    const AdmValue* u = r.FindField("user");
    ASSERT_NE(u, nullptr);
    int64_t uid = u->FindField("id")->int_value();
    if (uid == 2 || uid == 5 || uid == 7) ++expected;
  }
  ASSERT_GT(expected, 0u);
  for (bool vectorized : {false, true}) {
    for (bool pushdown : {false, true}) {
      QueryOptions opt;
      opt.vectorized = vectorized;
      opt.pushdown_scan_predicates = pushdown;
      opt.vec_batch_rows = 5;
      std::vector<uint64_t> counts(2, 0);
      auto sink = [&](int p) {
        return [&counts, p](Row&&) {
          ++counts[p];
          return Status::OK();
        };
      };
      auto stats = RunPlannedScan(fx.dataset.get(), opt, {}, pred, sink);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(counts[0] + counts[1], expected)
          << "vectorized=" << vectorized << " pushdown=" << pushdown;
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized vec-vs-row scan equivalence: the columnar extractor (exact, [*]
// and [i] paths) plus its GetValues fallback must return exactly what the
// row scan's GetValuesVector returns, record by record.
// ---------------------------------------------------------------------------

/// testutil::RandomRecord plus an "arr" field in one of the shapes a [*] path
/// must handle, and top-level / in-item duplicate field names.
AdmValue WildcardRecord(Rng* rng, int64_t id) {
  AdmValue rec = testutil::RandomRecord(rng, id, 3);
  auto item_obj = [rng]() {
    AdmValue o = AdmValue::Object();
    o.AddField("x", rng->Bernoulli(0.1) ? testutil::RandomValue(rng, 2)
                                        : testutil::RandomScalar(rng));
    AdmValue y = AdmValue::Array();
    for (uint64_t k = rng->Uniform(4); k > 0; --k) {
      y.Append(AdmValue::BigInt(rng->Range(-50, 50)));
    }
    o.AddField("y", std::move(y));
    if (rng->Bernoulli(0.2)) o.AddField("x", testutil::RandomScalar(rng));
    return o;
  };
  AdmValue arr;
  uint64_t n = rng->Uniform(6);
  switch (rng->Uniform(9)) {
    case 0:  // no "arr": wildcards over a missing field
      break;
    case 1:  // wildcard over a non-collection
      arr = testutil::RandomScalar(rng);
      break;
    case 2:  // typed doubles
      arr = AdmValue::Array();
      for (uint64_t k = 0; k < n; ++k) arr.Append(AdmValue::Double(rng->NextDouble()));
      break;
    case 3:  // mixed-type scalars, including nulls and points
      arr = AdmValue::Array();
      for (uint64_t k = 0; k < n; ++k) arr.Append(testutil::RandomScalar(rng));
      break;
    case 4:  // multiset of strings
      arr = AdmValue::Multiset();
      for (uint64_t k = 0; k < n; ++k) arr.Append(AdmValue::String(rng->AlphaString(3)));
      break;
    case 5:  // wildcard over an object
      arr = item_obj();
      break;
    case 6:  // array of objects
      arr = AdmValue::Array();
      for (uint64_t k = 0; k < n; ++k) arr.Append(item_obj());
      break;
    case 7:  // array of arrays of scalars
      arr = AdmValue::Array();
      for (uint64_t k = 0; k < n; ++k) {
        AdmValue inner = AdmValue::Array();
        for (uint64_t j = rng->Uniform(4); j > 0; --j) {
          inner.Append(AdmValue::BigInt(rng->Range(0, 9)));
        }
        arr.Append(std::move(inner));
      }
      break;
    default:  // scalars and objects side by side
      arr = AdmValue::Array();
      for (uint64_t k = 0; k < n; ++k) {
        arr.Append(rng->Bernoulli(0.5) ? item_obj() : testutil::RandomScalar(rng));
      }
      break;
  }
  if (arr.tag() != AdmTag::kMissing) rec.AddField("arr", std::move(arr));
  for (uint64_t k = rng->Uniform(3); k > 0; --k) {
    rec.AddField("dup", testutil::RandomScalar(rng));
  }
  return rec;
}

/// Runs one scan over every partition and returns each partition's rows.
std::vector<std::vector<std::vector<AdmValue>>> ScanRows(
    Dataset* ds, const std::vector<FieldPath>& paths, bool vectorized,
    size_t batch_rows) {
  std::vector<std::vector<std::vector<AdmValue>>> rows(ds->partition_count());
  QueryOptions opt;
  auto stats = RunPartitioned(
      ds, opt,
      [&](const PartitionContext& ctx) -> Result<std::unique_ptr<Operator>> {
        ScanSpec spec{paths, false, nullptr};
        if (!vectorized) {
          return std::unique_ptr<Operator>(new ScanOperator(
              ctx.partition, ctx.accessor, std::move(spec), ctx.counters, ctx.view));
        }
        std::unique_ptr<VecOperator> scan(
            new VecScanOperator(ctx.partition, ctx.accessor, std::move(spec),
                                batch_rows, ctx.counters, ctx.view));
        return std::unique_ptr<Operator>(new VecToRowBridge(std::move(scan)));
      },
      [&](int pid) -> RowSink {
        auto* out = &rows[static_cast<size_t>(pid)];
        return [out](Row&& row) {
          out->push_back(std::move(row.cols));
          return Status::OK();
        };
      });
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return rows;
}

TEST(VecRowEquivalence, RandomizedWildcardPathsAgree) {
  const std::vector<std::string> all = {
      "arr[*]",       "arr[*].x",  "arr[*].y[*]", "arr[*][1]", "arr[*].y[0]",
      "arr[*][*]",    "arr[1].y[*]", "dup",     "arr[*].dup", "f1[*]",
      "f2[*][*]",     "id",        "f0",        "arr",       "arr[0]",
      "absent[*].x"};
  std::vector<std::vector<std::string>> specs;
  for (const std::string& p : all) specs.push_back({p});
  specs.push_back({"id", "arr[*]", "dup"});
  specs.push_back({"arr[*].x", "arr[*].y[*]", "arr[*][1]", "f1[*]", "dup"});
  specs.push_back(all);
  for (SchemaMode mode : {SchemaMode::kInferred, SchemaMode::kSchemalessVB}) {
    DatasetFixture fx;
    ASSERT_TRUE(fx.Open(SmallOptions(mode, 32), 2).ok());
    Rng rng(mode == SchemaMode::kInferred ? 21 : 22);
    const int n = 300;
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(fx.dataset->Insert(WildcardRecord(&rng, i)).ok());
      // Flushed (compacted, for kInferred) components plus a memtable tail.
      if (i == 2 * n / 3) {
        ASSERT_TRUE(fx.dataset->FlushAll().ok());
      }
    }
    for (const auto& names : specs) {
      std::vector<FieldPath> paths;
      for (const std::string& name : names) paths.push_back(FieldPath::Parse(name));
      auto ref = ScanRows(fx.dataset.get(), paths, false, 0);
      size_t total = 0;
      for (const auto& part : ref) total += part.size();
      ASSERT_EQ(total, static_cast<size_t>(n));
      for (size_t batch_rows : {size_t{1}, size_t{7}, size_t{1024}}) {
        auto got = ScanRows(fx.dataset.get(), paths, true, batch_rows);
        ASSERT_EQ(got.size(), ref.size());
        for (size_t p = 0; p < ref.size(); ++p) {
          ASSERT_EQ(got[p].size(), ref[p].size());
          for (size_t r = 0; r < ref[p].size(); ++r) {
            ASSERT_EQ(got[p][r], ref[p][r])
                << "mode=" << static_cast<int>(mode) << " paths=" << names[0]
                << (names.size() > 1 ? ",..." : "") << " batch_rows=" << batch_rows
                << " partition=" << p << " row=" << r;
          }
        }
      }
    }
  }
}

// The Sensors pushed-through-unnest path extracts straight into a typed list
// column: doubles, no per-item AdmValue.
TEST(VecScan, WildcardScalarsFillTypedListColumns) {
  DatasetFixture fx;
  ASSERT_TRUE(fx.Open(SmallOptions(SchemaMode::kInferred, 128), 1).ok());
  auto gen = MakeGenerator("sensors", 5);
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(fx.dataset->Insert(gen->NextRecord()).ok());
  ASSERT_TRUE(fx.dataset->FlushAll().ok());
  DatasetPartition* part = fx.dataset->partition(0);
  RecordAccessor accessor(part->options().mode, &part->options().type,
                          part->SchemaSnapshot(), /*consolidate=*/true);
  ScanCounters counters;
  VecScanOperator scan(part, &accessor,
                       ScanSpec{{FieldPath::Parse("readings[*].temp")}, false, nullptr},
                       1024, &counters);
  ASSERT_TRUE(scan.Open().ok());
  ColumnBatch batch;
  ASSERT_TRUE(scan.Next(&batch).ValueOrDie());
  ASSERT_EQ(batch.rows, 12u);
  const ColumnVector& col = batch.cols[0];
  EXPECT_EQ(col.kind(), ColumnVector::Kind::kList);
  EXPECT_EQ(col.list_items().kind(), ColumnVector::Kind::kDouble);
  EXPECT_GT(col.list_items().size(), batch.rows);
}

// ---------------------------------------------------------------------------
// Hash join vs a nested-loop reference
// ---------------------------------------------------------------------------

using JoinedRow = std::tuple<int64_t, std::string, int64_t, int64_t>;

struct JoinFixture {
  DatasetFixture users;
  DatasetFixture tweets;
  std::map<int64_t, std::string> country;            // uid -> country
  std::vector<std::pair<int64_t, int64_t>> probes;   // (tweet id, uid)
  std::vector<JoinedRow> reference;                  // sorted

  // skew: 0 = uniform over [0, n_users + 5) (some tweets find no author),
  //       1 = 80% of tweets hit the first 10% of users.
  void Load(int n_users, int n_tweets, size_t upar, size_t tpar, int skew,
            uint64_t seed) {
    ASSERT_TRUE(users.Open(SmallOptions(SchemaMode::kInferred, 128), upar).ok());
    auto ugen = MakeGenerator("twitter_users", seed);
    for (int i = 0; i < n_users; ++i) {
      AdmValue r = ugen->NextRecord();
      country[r.FindField("id")->int_value()] =
          r.FindField("country")->string_value();
      ASSERT_TRUE(users.dataset->Insert(r).ok());
    }
    ASSERT_TRUE(users.dataset->FlushAll().ok());

    ASSERT_TRUE(tweets.Open(SmallOptions(SchemaMode::kInferred, 128), tpar).ok());
    auto tgen = MakeGenerator("twitter", seed + 1);
    Rng rng(seed + 2);
    int hot = std::max(1, n_users / 10);
    for (int i = 0; i < n_tweets; ++i) {
      AdmValue t = tgen->NextRecord();
      int64_t uid = skew == 1 && rng.Bernoulli(0.8)
                        ? static_cast<int64_t>(rng.Uniform(hot))
                        : static_cast<int64_t>(rng.Uniform(n_users + 5));
      RemapTweetUserId(&t, uid);
      int64_t tid = t.FindField("id")->int_value();
      probes.emplace_back(tid, uid);
      ASSERT_TRUE(tweets.dataset->Insert(t).ok());
    }
    ASSERT_TRUE(tweets.dataset->FlushAll().ok());

    for (const auto& [tid, uid] : probes) {
      auto it = country.find(uid);
      if (it != country.end()) {
        reference.emplace_back(uid, it->second, uid, tid);
      }
    }
    std::sort(reference.begin(), reference.end());
  }

  // Runs the join and returns the sorted output rows
  // [build id, country, probe user.id, tweet id].
  Result<JoinStats> Run(JoinSpec spec, std::vector<JoinedRow>* out) {
    spec.build_key = "id";
    spec.probe_key = "user.id";
    spec.build_paths = {"country"};
    spec.probe_paths = {"id"};
    size_t tpar = tweets.dataset->partition_count();
    std::vector<std::vector<JoinedRow>> rows(tpar);
    auto factory = [&rows](int partition) {
      std::vector<JoinedRow>* mine = &rows[partition];
      return [mine](const ColumnBatch& b) {
        b.ForEachActive([&](size_t r) {
          mine->emplace_back(b.cols[0].ValueAt(r).int_value(),
                             std::string(b.cols[1].ValueAt(r).string_value()),
                             b.cols[2].ValueAt(r).int_value(),
                             b.cols[3].ValueAt(r).int_value());
        });
        return Status::OK();
      };
    };
    TC_ASSIGN_OR_RETURN(
        JoinStats stats,
        HashJoinDatasets(users.dataset.get(), tweets.dataset.get(), spec, factory));
    out->clear();
    for (auto& v : rows) out->insert(out->end(), v.begin(), v.end());
    std::sort(out->begin(), out->end());
    return stats;
  }
};

TEST(HashJoin, MatchesNestedLoopReferenceAcrossPartitionsAndSkew) {
  struct Config {
    size_t upar, tpar;
    int skew;
  };
  uint64_t seed = 900;
  for (const Config& cfg :
       {Config{1, 1, 0}, Config{2, 3, 0}, Config{3, 2, 1}, Config{2, 2, 1}}) {
    JoinFixture jf;
    jf.Load(40, 150, cfg.upar, cfg.tpar, cfg.skew, seed += 17);
    ASSERT_FALSE(jf.reference.empty());
    for (bool vectorized : {true, false}) {
      JoinSpec spec;
      spec.vectorized = vectorized;
      spec.batch_rows = 9;  // force many output-batch flushes
      std::vector<JoinedRow> got;
      auto stats = jf.Run(spec, &got);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(got, jf.reference)
          << "upar=" << cfg.upar << " tpar=" << cfg.tpar << " skew=" << cfg.skew
          << " vectorized=" << vectorized;
      EXPECT_EQ(stats.value().output_rows, jf.reference.size());
      EXPECT_EQ(stats.value().passes, 1u);
      EXPECT_EQ(stats.value().build_rows, 40u);
      EXPECT_EQ(stats.value().probe_rows, 150u);
    }
  }
}

TEST(HashJoin, TinyBudgetForcesMultipleWavesSameResult) {
  JoinFixture jf;
  jf.Load(60, 200, /*upar=*/3, /*tpar=*/2, /*skew=*/0, 1234);
  JoinSpec spec;
  std::vector<JoinedRow> one_wave;
  ASSERT_TRUE(jf.Run(spec, &one_wave).ok());
  EXPECT_EQ(one_wave, jf.reference);

  // A 1-byte budget admits exactly the first (always-admitted) build partition
  // per wave: 3 build partitions -> 3 full probe passes.
  spec.build_budget_bytes = 1;
  std::vector<JoinedRow> waves;
  auto stats = jf.Run(spec, &waves);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().passes, 3u);
  EXPECT_EQ(stats.value().probe_rows, 3 * 200u);
  EXPECT_EQ(waves, jf.reference);
}

TEST(HashJoin, ProbePredicateFiltersBeforeJoin) {
  JoinFixture jf;
  jf.Load(30, 100, 2, 2, 0, 555);
  JoinSpec spec;
  spec.probe_predicate = ScanPredicate::And(
      {ScanPredicate::Term("user.id", CompareOp::kLt, AdmValue::BigInt(15))});
  std::vector<JoinedRow> got;
  ASSERT_TRUE(jf.Run(spec, &got).ok());
  std::vector<JoinedRow> expected;
  for (const JoinedRow& r : jf.reference) {
    if (std::get<2>(r) < 15) expected.push_back(r);
  }
  EXPECT_EQ(got, expected);
}

// Joins repeatedly while tweets ingest concurrently: each join pins read views
// at start, so it must see a consistent prefix (every matched tweet existed,
// output never shrinks below the pre-ingest reference). Primarily a TSan
// target.
TEST(HashJoin, StormUnderConcurrentIngest) {
  JoinFixture jf;
  jf.Load(30, 80, 2, 2, 0, 321);
  std::atomic<bool> stop{false};
  std::thread feeder([&] {
    auto tgen = MakeGenerator("twitter", 999);
    // Skip ids already used by the fixture.
    for (int i = 0; i < 80; ++i) tgen->NextRecord();
    Rng rng(1000);
    while (!stop.load(std::memory_order_relaxed)) {
      AdmValue t = tgen->NextRecord();
      RemapTweetUserId(&t, static_cast<int64_t>(rng.Uniform(30)));
      ASSERT_TRUE(jf.tweets.dataset->Insert(t).ok());
    }
  });
  size_t baseline = jf.reference.size();
  std::vector<std::thread> joiners;
  std::atomic<int> failures{0};
  for (int t = 0; t < 2; ++t) {
    joiners.emplace_back([&, t] {
      for (int i = 0; i < 3; ++i) {
        JoinSpec spec;
        spec.batch_rows = 16;
        spec.vectorized = (t == 0);
        std::vector<std::vector<JoinedRow>> rows(2);
        auto factory = [&rows](int partition) {
          std::vector<JoinedRow>* mine = &rows[partition];
          return [mine](const ColumnBatch& b) {
            b.ForEachActive([&](size_t r) {
              mine->emplace_back(b.cols[0].ValueAt(r).int_value(), "",
                                 b.cols[2].ValueAt(r).int_value(),
                                 b.cols[3].ValueAt(r).int_value());
            });
            return Status::OK();
          };
        };
        JoinSpec s = spec;
        s.build_key = "id";
        s.probe_key = "user.id";
        s.build_paths = {"country"};
        s.probe_paths = {"id"};
        auto stats = HashJoinDatasets(jf.users.dataset.get(),
                                      jf.tweets.dataset.get(), s, factory);
        if (!stats.ok() ||
            stats.value().output_rows < baseline) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : joiners) th.join();
  stop.store(true);
  feeder.join();
  EXPECT_EQ(failures.load(), 0);
}

// The join-backed paper query: group tweets per author country and agree with
// a reference computed from the generators' own output.
TEST(HashJoin, TwitterJoinTopCountriesMatchesReference) {
  JoinFixture jf;
  jf.Load(50, 200, 2, 2, /*skew=*/1, 777);
  std::map<std::string, uint64_t> ref_counts;
  for (const JoinedRow& r : jf.reference) ++ref_counts[std::get<1>(r)];
  std::vector<std::pair<uint64_t, std::string>> order;
  for (const auto& [c, n] : ref_counts) order.emplace_back(n, c);
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  for (bool vectorized : {true, false}) {
    QueryOptions opt;
    opt.vectorized = vectorized;
    auto res = TwitterJoinTopCountries(jf.users.dataset.get(),
                                       jf.tweets.dataset.get(), opt);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(res.value().stats.plan, "hash-join");
    // The summary renders "country=count" entries (%.4f counts); the top
    // reference entry must appear with its exact count.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "=%.4f", static_cast<double>(order[0].first));
    std::string want = order[0].second + buf;
    EXPECT_NE(res.value().summary.find(want), std::string::npos)
        << "summary: " << res.value().summary << " want " << want;
  }
}

}  // namespace
}  // namespace tc
