// tcbench: the store's end-to-end benchmark.
//
//   tcbench --workload <ingest_upsert|scan_cold|lookup_mixed> --seed <n>
//           --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]
//
// Drives the tuple-compacted LSM store from outside, through its public API
// only, in one fixed deployment (see Deployment below and NOTES.md). All
// inputs are generated during set-up from --seed; the store only ever sees
// the generated records. Every workload keeps an oracle of its inputs and
// checks the store's answers against it; a failed check fails the run.
//
// Output: a `settings` line and one `metric <name> <value> <unit>` line per
// measured figure for people, then, as the last line, one JSON object
// {"correct","attempted","failed","metrics"} holding the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1) named in BENCHMARK.json. A traced run also writes its spans to
// <out-dir>/trace-<workload>-<seed>.jsonl and its full report to
// <out-dir>/report-<workload>-<seed>-trace<0|1>.json.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "adm/printer.h"
#include "common/rng.h"
#include "common/task_pool.h"
#include "core/dataset.h"
#include "core/ingest.h"
#include "query/paper_queries.h"
#include "storage/buffer_cache.h"
#include "storage/device_model.h"
#include "trace.h"
#include "workload/workload.h"

extern char** environ;

namespace tcbench {
namespace {

using tc::AdmValue;
using tc::Dataset;
using tc::DatasetPartition;
using tc::Rng;
using tc::Status;

// ---------------------------------------------------------------------------
// Deployment: identical for every workload (printed in the `settings` line).
// ---------------------------------------------------------------------------
constexpr size_t kPartitions = 2;
constexpr size_t kPageSize = 32 * 1024;
constexpr size_t kMemtableBytes = 384 * 1024;
constexpr size_t kPoolThreads = 1;
constexpr size_t kWalSyncEvery = 1;  // one fdatasync per commit group
constexpr size_t kLoadCachePages = 256;
constexpr double kUpsertShare = 0.30;       // ingest_upsert feed
constexpr size_t kIngestBatchRecords = 16;  // records per Submit
constexpr size_t kIngestWindow = 8;         // outstanding tickets (closed loop)
constexpr size_t kLoadBatchRecords = 64;    // set-up loads
constexpr size_t kLookupClients = 2;
constexpr double kScanCacheShare = 0.25;   // cache bytes / on-disk bytes
constexpr double kLookupCacheShare = 8.0;  // cache bytes / on-disk bytes
constexpr size_t kTracedOpEvery = 8;       // lookup ops traced in a traced slice
constexpr double kSliceSeconds = 0.25;     // lookup sampling and trace slices

struct Sizes {
  uint64_t ingest_raw_bytes;
  uint64_t scan_twitter_raw_bytes;
  uint64_t scan_sensors_raw_bytes;
  uint64_t lookup_raw_bytes;
  int setup_reps;
  size_t sampled_gets;
};

constexpr Sizes kFullSizes{24ull << 20, 8ull << 20, 8ull << 20, 6ull << 20, 7, 256};
constexpr Sizes kSmokeSizes{2ull << 20, 1ull << 20, 1ull << 20, 1ull << 20, 2, 32};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
};

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// The metric names BENCHMARK.json lists; every run emits exactly these.
const char* const kEndToEnd[] = {"setup_s",        "peak_rss_mib",
                                 "storage_bytes_per_raw_byte",
                                 "latency_p50_ms", "latency_tail_ms",
                                 "cpu_us_per_op"};
const char* const kPerLayer[] = {
    "format.encode_us",        "format.decode_us",
    "schema.inferred_fields",  "ingest.drain_s",
    "lsm.flushes",             "lsm.merges",
    "lsm.write_amp",           "lsm.bytes_flushed_mib",
    "lsm.bytes_merged_mib",    "lsm.records_recompacted",
    "lsm.flush_queue_hwm",     "lsm.components_hwm",
    "lsm.filter_checks",       "lsm.filter_negative_ratio",
    "lsm.filter_fp_ratio",     "lsm.lookup_pages_per_get",
    "lsm.old_version_lookups", "lsm.view_acquire_us",
    "lsm.get_us",              "cache.hit_ratio",
    "cache.misses",            "device.read_mib",
    "device.write_mib",        "storage.on_disk_mib",
    "query.twitter_q1_s",      "query.window_narrow_s",
    "query.window_wide_s",     "query.rows_scanned",
    "query.bytes_scanned",     "query.rows_filtered_pre_assembly",
    "query.schema_broadcast_bytes", "query.vec_batches",
    "trace.overhead_ratio"};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }
  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::string JsonNumber(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Ordered JSON object builder for the settings line and the report file.
class JsonObject {
 public:
  JsonObject& Num(const std::string& k, double v) { return Raw(k, JsonNumber(v)); }
  JsonObject& Str(const std::string& k, const std::string& v) {
    return Raw(k, JsonString(v));
  }
  JsonObject& Bool(const std::string& k, bool v) { return Raw(k, v ? "true" : "false"); }
  JsonObject& Raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + JsonString(k) + ":" + v;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Output checks: every check is one attempted operation; a failed one makes
/// the run incorrect and is printed.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(what);
  }
  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// Process memory.
// ---------------------------------------------------------------------------
void ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double PeakRssMib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// The store, opened in the deployment shape.
// ---------------------------------------------------------------------------
class Store {
 public:
  Store(std::string dir, size_t cache_pages) : dir_(std::move(dir)) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::create_directories(dir_);
    fs_ = tc::MakePosixFileSystem();
    device_ = std::make_shared<tc::DeviceModel>(tc::DeviceProfile::Unthrottled());
    fs_->set_device(device_);
    cache_ = std::make_unique<tc::BufferCache>(kPageSize, cache_pages);
    pool_ = std::make_unique<tc::TaskPool>(kPoolThreads);
  }
  ~Store() {
    datasets_.clear();
    pool_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  static tc::DatasetOptions Options(const std::string& name, bool twitter) {
    tc::DatasetOptions o;
    o.name = name;
    o.mode = tc::SchemaMode::kInferred;
    o.type = tc::DatasetType::OpenWithPk("id");
    o.compression = true;
    o.page_size = kPageSize;
    o.memtable_budget_bytes = kMemtableBytes;
    o.pk_index_budget_divisor = 16;
    o.secondary_budget_divisor = 8;
    o.min_tree_budget_bytes = 64 * 1024;
    o.merge = tc::MergePolicyConfig{};
    o.filter = tc::BloomFilterConfig{};
    o.merge_transform = true;
    o.merge_recompress = tc::CompressionKind::kNone;
    o.value_ordered_merges = true;
    o.use_wal = true;
    o.wal_sync_every = kWalSyncEvery;
    o.primary_key_index = true;
    o.secondary_index_field = twitter ? "timestamp_ms" : "";
    return o;
  }

  /// Opens (or reopens, recovering what is on disk) the named dataset.
  Dataset* Open(const std::string& name, bool twitter) {
    tc::DatasetOptions o = Options(name, twitter);
    o.dir = dir_ + "/" + name;
    std::filesystem::create_directories(o.dir);
    o.merge_pool = pool_.get();
    o.fs = fs_;
    o.cache = cache_.get();
    auto ds = Dataset::Open(std::move(o), kPartitions);
    if (!ds.ok()) {
      std::fprintf(stderr, "open %s: %s\n", name.c_str(),
                   ds.status().ToString().c_str());
      std::exit(1);
    }
    Dataset* raw = ds.value().get();
    datasets_[name] = std::move(ds).value();
    return raw;
  }
  void Close(const std::string& name) { datasets_.erase(name); }

  uint64_t OnDiskBytes() const {
    uint64_t total = 0;
    for (const auto& [name, ds] : datasets_) total += ds->TotalPhysicalBytes();
    return total;
  }
  tc::BufferCache* cache() { return cache_.get(); }
  tc::DeviceModel* device() { return device_.get(); }

 private:
  std::string dir_;
  std::shared_ptr<tc::FileSystem> fs_;
  std::shared_ptr<tc::DeviceModel> device_;
  std::unique_ptr<tc::BufferCache> cache_;
  std::unique_ptr<tc::TaskPool> pool_;
  std::map<std::string, std::unique_ptr<Dataset>> datasets_;
};

std::string SettingsJson(const Args& args, const Sizes& sizes) {
  tc::DatasetOptions o = Store::Options("twitter", true);
  tc::GroupCommitConfig gc;
  JsonObject merge;
  merge.Str("policy", tc::MergePolicyKindName(o.merge.kind))
      .Num("max_mergeable_bytes", static_cast<double>(o.merge.max_mergeable_bytes))
      .Num("max_tolerance_count", static_cast<double>(o.merge.max_tolerance_count))
      .Num("max_concurrent_merges", static_cast<double>(o.merge.max_concurrent_merges))
      .Num("max_pending_flush_builds",
           static_cast<double>(o.merge.max_pending_flush_builds))
      .Bool("transform", o.merge_transform)
      .Str("recompress", tc::CompressionKindName(o.merge_recompress))
      .Bool("value_ordered", o.value_ordered_merges);
  JsonObject ds;
  ds.Str("mode", tc::SchemaModeName(o.mode))
      .Bool("page_compression", o.compression)
      .Num("partitions", kPartitions)
      .Num("page_size", static_cast<double>(o.page_size))
      .Num("memtable_budget_bytes", static_cast<double>(o.memtable_budget_bytes))
      .Num("pk_index_budget_divisor", static_cast<double>(o.pk_index_budget_divisor))
      .Num("secondary_budget_divisor",
           static_cast<double>(o.secondary_budget_divisor))
      .Num("min_tree_budget_bytes", static_cast<double>(o.min_tree_budget_bytes))
      .Bool("primary_key_index", o.primary_key_index)
      .Str("twitter_secondary_index", o.secondary_index_field)
      .Bool("wal", o.use_wal)
      .Num("wal_sync_every", static_cast<double>(o.wal_sync_every))
      .Num("bloom_bits_per_key", static_cast<double>(o.filter.bits_per_key))
      .Bool("pin_lookup_pages", o.filter.pin_lookup_pages)
      .Raw("merge", merge.str());
  JsonObject group;
  group.Num("max_bytes", static_cast<double>(gc.max_bytes))
      .Num("max_records", static_cast<double>(gc.max_records))
      .Num("max_usecs", static_cast<double>(gc.max_usecs));
  JsonObject threads;
  threads.Num("pool", kPoolThreads)
      .Num("ingest_writers", kPartitions)
      .Num("lookup_clients", kLookupClients)
      .Num("query_executors", kPartitions);
  JsonObject sizes_json;
  sizes_json.Num("ingest_raw_bytes", static_cast<double>(sizes.ingest_raw_bytes))
      .Num("ingest_batch_records", kIngestBatchRecords)
      .Num("ingest_window_tickets", kIngestWindow)
      .Num("ingest_upsert_share", kUpsertShare)
      .Num("scan_twitter_raw_bytes", static_cast<double>(sizes.scan_twitter_raw_bytes))
      .Num("scan_sensors_raw_bytes", static_cast<double>(sizes.scan_sensors_raw_bytes))
      .Num("scan_cache_share_of_disk", kScanCacheShare)
      .Num("lookup_raw_bytes", static_cast<double>(sizes.lookup_raw_bytes))
      .Num("lookup_cache_share_of_disk", kLookupCacheShare)
      .Num("lookup_traced_op_every", kTracedOpEvery)
      .Num("trace_slice_seconds", kSliceSeconds)
      .Num("load_batch_records", kLoadBatchRecords)
      .Num("setup_repetitions", sizes.setup_reps)
      .Num("sampled_gets", static_cast<double>(sizes.sampled_gets));
  JsonObject root;
  root.Str("workload", args.workload)
      .Num("seed", static_cast<double>(args.seed))
      .Num("seconds", args.seconds)
      .Bool("trace", args.trace)
      .Bool("smoke", args.smoke)
      .Str("device", tc::DeviceProfile::Unthrottled().name)
      .Bool("vectorized_queries", true)
      .Num("vec_batch_rows", 1024)
      .Raw("dataset", ds.str())
      .Raw("group_commit", group.str())
      .Raw("threads", threads.str());
  root.Raw("sizes", sizes_json.str());
  return root.str();
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------
void SetId(AdmValue* rec, int64_t id) {
  for (size_t f = 0; f < rec->field_count(); ++f) {
    if (rec->field_name(f) == "id") {
      rec->field_value(f) = AdmValue::BigInt(id);
      return;
    }
  }
}

int64_t FieldInt(const AdmValue& rec, const char* name, int64_t missing) {
  const AdmValue* v = rec.FindField(name);
  return v == nullptr ? missing : v->int_value();
}

/// The three shape changes of the paper's update feed (Fig 17b): a field
/// added, a field removed, or a field whose type becomes a union.
void MutateShape(AdmValue* rec, Rng* rng) {
  switch (rng->Uniform(3)) {
    case 0:
      rec->AddField("update_note", AdmValue::String(rng->AlphaString(12)));
      break;
    case 1:
      rec->RemoveField("lang");
      break;
    default:
      rec->AddField("revision", rng->Bernoulli(0.5) ? AdmValue::BigInt(1)
                                                    : AdmValue::String("one"));
      break;
  }
}

using Batches = std::vector<std::vector<AdmValue>>;

/// Generated records cut into Submit-sized batches, plus their ADM text size.
struct Generated {
  Batches batches;
  uint64_t records = 0;
  uint64_t raw_bytes = 0;
  std::vector<uint32_t> adm_bytes;  // per record, in feed order
};

Generated Generate(const std::string& dataset, uint64_t seed, uint64_t raw_target,
                   size_t batch_records,
                   const std::function<void(AdmValue*)>& visit) {
  auto gen = tc::MakeGenerator(dataset, seed);
  Generated g;
  while (g.raw_bytes < raw_target) {
    if (g.batches.empty() || g.batches.back().size() >= batch_records) {
      g.batches.emplace_back();
      g.batches.back().reserve(batch_records);
    }
    AdmValue rec = gen->NextRecord();
    if (visit) visit(&rec);
    g.adm_bytes.push_back(static_cast<uint32_t>(tc::PrintAdm(rec).size()));
    g.raw_bytes += g.adm_bytes.back();
    ++g.records;
    g.batches.back().push_back(std::move(rec));
  }
  return g;
}

/// Loads batches through the ingest front end and waits until everything is
/// flushed and merged. Returns false (after printing why) on any failure.
bool Load(Dataset* ds, Batches batches, tc::IngestOp op) {
  tc::IngestFrontEnd fe(ds, tc::GroupCommitConfig{});
  std::deque<tc::IngestTicket> window;
  bool ok = true;
  for (auto& batch : batches) {
    window.push_back(fe.Submit(std::move(batch), op));
    while (window.size() > kIngestWindow) {
      ok &= window.front().Wait().ok();
      window.pop_front();
    }
  }
  for (auto& t : window) ok &= t.Wait().ok();
  ok &= fe.Drain().ok();
  ok &= ds->FlushAll().ok();
  ok &= ds->WaitForBackgroundWork().ok();
  if (!ok) std::fprintf(stderr, "set-up load failed\n");
  return ok;
}

// ---------------------------------------------------------------------------
// Layer probes shared by the workloads.
// ---------------------------------------------------------------------------

/// A point read through the public calls Dataset::Get is made of: pick the
/// partition, pin a read view, look the key up in the primary tree, decode.
/// Each call is a span when `log` is set.
tc::Result<std::optional<AdmValue>> DecomposedGet(Dataset* ds, int64_t pk,
                                                  SpanLog* log, uint64_t parent,
                                                  uint64_t req) {
  DatasetPartition* part = ds->partition(ds->PartitionOf(pk));
  tc::PartitionReadView view;
  {
    Span s(log, "lsm.view_acquire", parent, req);
    view = part->AcquireReadView();
  }
  std::optional<tc::Result<std::optional<tc::Buffer>>> payload;
  {
    Span s(log, "lsm.get", parent, req);
    payload.emplace(view.primary->Get(tc::BtreeKey{pk, 0}));
  }
  if (!payload->ok()) return payload->status();
  if (!payload->value().has_value()) return std::optional<AdmValue>();
  const tc::Buffer& bytes = *payload->value();
  AdmValue rec;
  Status st;
  {
    Span s(log, "format.decode", parent, req);
    st = part->DecodeRecord(
        std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()),
        &rec);
  }
  if (!st.ok()) return st;
  return std::optional<AdmValue>(std::move(rec));
}

void ProbeEncode(Dataset* ds, const AdmValue& rec, SpanLog* log, uint64_t parent,
                 uint64_t req) {
  DatasetPartition* part = ds->partition(ds->PartitionOf(FieldInt(rec, "id", 0)));
  tc::Buffer out;
  Span s(log, "format.encode", parent, req);
  (void)part->EncodeRecord(rec, &out);
}

/// Counters of the store read around a timed phase.
struct StoreCounters {
  tc::LsmStats lsm;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t device_read = 0;
  uint64_t device_written = 0;

  static StoreCounters Read(Store* store, const std::vector<Dataset*>& datasets) {
    StoreCounters c;
    for (Dataset* ds : datasets) {
      tc::LsmStats s = ds->AggregateStats();
      c.lsm.flush_count += s.flush_count;
      c.lsm.merge_count += s.merge_count;
      c.lsm.bytes_flushed += s.bytes_flushed;
      c.lsm.bytes_merged += s.bytes_merged;
      c.lsm.point_lookups += s.point_lookups;
      c.lsm.old_version_lookups += s.old_version_lookups;
      c.lsm.filter_checks += s.filter_checks;
      c.lsm.filter_negatives += s.filter_negatives;
      c.lsm.filter_false_positives += s.filter_false_positives;
      c.lsm.lookup_pages_read += s.lookup_pages_read;
      c.lsm.merge_read_usecs += s.merge_read_usecs;
      c.lsm.merge_transform_usecs += s.merge_transform_usecs;
      c.lsm.merge_compress_usecs += s.merge_compress_usecs;
      c.lsm.merge_write_usecs += s.merge_write_usecs;
      c.lsm.merge_records_recompacted += s.merge_records_recompacted;
      c.lsm.component_count_high_water =
          std::max(c.lsm.component_count_high_water, s.component_count_high_water);
      c.lsm.flush_queue_high_water =
          std::max(c.lsm.flush_queue_high_water, s.flush_queue_high_water);
    }
    c.cache_hits = store->cache()->hits();
    c.cache_misses = store->cache()->misses();
    c.device_read = store->device()->bytes_read();
    c.device_written = store->device()->bytes_written();
    return c;
  }
};

int64_t CpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }
double MiB(double bytes) { return bytes / (1 << 20); }

/// Per-layer counters of one timed phase: `after - before` (the high-water
/// marks are the store's own, since the datasets were opened). Merge stage
/// CPU is reported only by workloads that write.
void ReportStoreLayers(const StoreCounters& b, const StoreCounters& a, bool writes,
                       Report* r) {
  const tc::LsmStats& x = a.lsm;
  const tc::LsmStats& y = b.lsm;
  double flushed = static_cast<double>(x.bytes_flushed - y.bytes_flushed);
  double merged = static_cast<double>(x.bytes_merged - y.bytes_merged);
  double checks = static_cast<double>(x.filter_checks - y.filter_checks);
  double lookups = static_cast<double>(x.point_lookups - y.point_lookups);
  double hits = static_cast<double>(a.cache_hits - b.cache_hits);
  double misses = static_cast<double>(a.cache_misses - b.cache_misses);
  r->Set("lsm.flushes", static_cast<double>(x.flush_count - y.flush_count), "count");
  r->Set("lsm.merges", static_cast<double>(x.merge_count - y.merge_count), "count");
  r->Set("lsm.write_amp", Ratio(flushed + merged, flushed), "ratio");
  r->Set("lsm.bytes_flushed_mib", MiB(flushed), "MiB");
  r->Set("lsm.bytes_merged_mib", MiB(merged), "MiB");
  r->Set("lsm.records_recompacted",
         static_cast<double>(x.merge_records_recompacted - y.merge_records_recompacted),
         "count");
  r->Set("lsm.flush_queue_hwm", static_cast<double>(x.flush_queue_high_water), "count");
  r->Set("lsm.components_hwm", static_cast<double>(x.component_count_high_water),
         "count");
  r->Set("lsm.filter_checks", checks, "count");
  r->Set("lsm.filter_negative_ratio",
         Ratio(static_cast<double>(x.filter_negatives - y.filter_negatives), checks),
         "ratio");
  r->Set("lsm.filter_fp_ratio",
         Ratio(static_cast<double>(x.filter_false_positives - y.filter_false_positives),
               checks),
         "ratio");
  r->Set("lsm.lookup_pages_per_get",
         Ratio(static_cast<double>(x.lookup_pages_read - y.lookup_pages_read), lookups),
         "pages");
  r->Set("lsm.old_version_lookups",
         static_cast<double>(x.old_version_lookups - y.old_version_lookups), "count");
  r->Set("cache.hit_ratio", Ratio(hits, hits + misses), "ratio");
  r->Set("cache.misses", misses, "count");
  r->Set("device.read_mib", MiB(static_cast<double>(a.device_read - b.device_read)),
         "MiB");
  r->Set("device.write_mib",
         MiB(static_cast<double>(a.device_written - b.device_written)), "MiB");
  if (writes) {
    r->Set("lsm.merge_read_ms",
           static_cast<double>(x.merge_read_usecs - y.merge_read_usecs) / 1e3, "ms");
    r->Set("lsm.merge_transform_ms",
           static_cast<double>(x.merge_transform_usecs - y.merge_transform_usecs) / 1e3,
           "ms");
    r->Set("lsm.merge_compress_ms",
           static_cast<double>(x.merge_compress_usecs - y.merge_compress_usecs) / 1e3,
           "ms");
    r->Set("lsm.merge_write_ms",
           static_cast<double>(x.merge_write_usecs - y.merge_write_usecs) / 1e3, "ms");
  }
}

double InferredFields(Dataset* ds) {
  double n = 0;
  for (size_t p = 0; p < ds->partition_count(); ++p) {
    n += static_cast<double>(ds->partition(p)->SchemaSnapshot().root()->SubtreeSize());
  }
  return n;
}

/// Per-query counters summed over the queries of one round.
struct QueryCounts {
  double rows_scanned = 0;
  double bytes_scanned = 0;
  double rows_filtered = 0;
  double broadcast_bytes = 0;
  double vec_batches = 0;

  void Add(const tc::QueryStats& s) {
    rows_scanned += static_cast<double>(s.rows_scanned);
    bytes_scanned += static_cast<double>(s.bytes_scanned);
    rows_filtered += static_cast<double>(s.rows_filtered_pre_assembly);
    broadcast_bytes += static_cast<double>(s.schema_broadcast_bytes);
    for (const tc::QueryOpCounters& op : s.operators) {
      if (op.name == "scan") vec_batches += static_cast<double>(op.batches);
    }
  }
  void Report(tcbench::Report* r) const {
    r->Set("query.rows_scanned", rows_scanned, "count");
    r->Set("query.bytes_scanned", bytes_scanned, "bytes");
    r->Set("query.rows_filtered_pre_assembly", rows_filtered, "count");
    r->Set("query.schema_broadcast_bytes", broadcast_bytes, "bytes");
    r->Set("query.vec_batches", vec_batches, "count");
  }
};

tc::QueryOptions DeploymentQueryOptions() {
  tc::QueryOptions opt;
  opt.vectorized = true;
  opt.vec_batch_rows = 1024;
  return opt;
}

/// Open window (lo < ts < hi), as TwitterWindowCount evaluates it.
struct Window {
  int64_t lo;
  int64_t hi;
  uint64_t Count(const std::vector<int64_t>& ts) const {
    uint64_t n = 0;
    for (int64_t t : ts) n += (t > lo && t < hi) ? 1 : 0;
    return n;
  }
};

/// Narrow window (first 1% of the time range: the planner probes the index)
/// and wide window (the whole range: it scans with the filter lowered).
std::pair<Window, Window> Windows(const std::vector<int64_t>& ts) {
  int64_t lo = *std::min_element(ts.begin(), ts.end());
  int64_t hi = *std::max_element(ts.begin(), ts.end());
  int64_t span = hi - lo + 1;
  return {Window{lo - 1, lo + span / 100}, Window{lo - 1, hi + 1}};
}

/// One timed paper query: its wall time and result.
struct QueryRun {
  double seconds = 0;
  tc::PaperQueryResult result;
};

bool RunQuery(const std::function<tc::Result<tc::PaperQueryResult>()>& fn,
              const char* span_name, SpanLog* log, uint64_t parent, uint64_t req,
              QueryRun* out) {
  Span s(log, span_name, parent, req);
  int64_t t0 = NowNs();
  auto r = fn();
  out->seconds = static_cast<double>(NowNs() - t0) / 1e9;
  if (!r.ok()) return false;
  out->result = std::move(r).value();
  return true;
}

/// The Twitter output checks every workload ends with: COUNT(*) against the
/// number of live keys, and both timestamp windows against the oracle.
/// Records each query's time under its span name in `times`.
void TwitterChecks(Dataset* ds, uint64_t live_keys, const std::vector<int64_t>& ts,
                   SpanLog* log, uint64_t req, Outcome* out,
                   std::map<std::string, Samples>* times, QueryCounts* counts) {
  tc::QueryOptions opt = DeploymentQueryOptions();
  auto [narrow, wide] = Windows(ts);
  Span root(log, "check.twitter", 0, req);
  struct Q {
    const char* name;
    std::function<tc::Result<tc::PaperQueryResult>()> fn;
    uint64_t expect;
  } qs[] = {
      {"query.twitter_q1", [&] { return tc::TwitterQ1(ds, opt); }, live_keys},
      {"query.window_narrow",
       [&] { return tc::TwitterWindowCount(ds, narrow.lo, narrow.hi, opt); },
       narrow.Count(ts)},
      {"query.window_wide",
       [&] { return tc::TwitterWindowCount(ds, wide.lo, wide.hi, opt); },
       wide.Count(ts)},
  };
  for (const Q& q : qs) {
    QueryRun run;
    bool ok = RunQuery(q.fn, q.name, log, root.id(), req, &run);
    std::string want = "count=" + std::to_string(q.expect);
    out->Op(ok && run.result.summary == want,
            std::string(q.name) + ": got '" + run.result.summary + "', want '" +
                want + "'");
    (*times)[q.name].Add(run.seconds);
    counts->Add(run.result.stats);
  }
}

void ReportQueryTimes(const std::map<std::string, Samples>& times, Report* r) {
  for (const auto& [name, s] : times) r->Set(name + "_s", s.Median(), "s");
}

// Span-derived per-layer times of a traced run.
void ReportSpanLayers(const Tracer& tracer, Report* r) {
  std::map<std::string, Samples> self = tracer.SelfMicros();
  auto med = [&](const char* span) {
    auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second.Median();
  };
  r->Set("format.encode_us", med("format.encode"), "us");
  r->Set("format.decode_us", med("format.decode"), "us");
  r->Set("lsm.view_acquire_us", med("lsm.view_acquire"), "us");
  r->Set("lsm.get_us", med("lsm.get"), "us");
  auto submit = self.find("ingest.submit");
  if (submit != self.end()) {
    r->Set("ingest.submit_us_p50", submit->second.Median(), "us");
    r->Set("ingest.submit_us_p99", submit->second.Quantile(0.99), "us");
  }
}

std::string Scratch(const Args& args, const std::string& what) {
  return args.out_dir + "/data-" + std::to_string(::getpid()) + "-" + what;
}

struct RunResult {
  Report report;
  Outcome outcome;
};

// ---------------------------------------------------------------------------
// ingest_upsert: the write path, no queries in the timed phase.
// ---------------------------------------------------------------------------
struct KeyVersion {
  int64_t ts = 0;
  uint64_t adm_bytes = 0;
};

struct IngestFeed {
  Batches batches;
  uint64_t records = 0;
  std::unordered_map<int64_t, KeyVersion> last;  // oracle: newest version fed
};

/// The Twitter feed with kUpsertShare of its records re-keyed to earlier
/// keys and reshaped. Deterministic in `seed`, so each repetition regenerates
/// it instead of keeping a second copy in memory.
IngestFeed MakeIngestFeed(uint64_t seed, uint64_t raw_target) {
  IngestFeed feed;
  Rng rng(seed ^ 0xfeedULL);
  std::vector<int64_t> keys;
  Generated g = Generate("twitter", seed, raw_target, kIngestBatchRecords,
                         [&](AdmValue* rec) {
                           if (!keys.empty() && rng.Bernoulli(kUpsertShare)) {
                             SetId(rec, keys[rng.Uniform(keys.size())]);
                             MutateShape(rec, &rng);
                           } else {
                             keys.push_back(FieldInt(*rec, "id", 0));
                           }
                         });
  size_t i = 0;
  for (const auto& batch : g.batches) {
    for (const AdmValue& rec : batch) {
      KeyVersion& v = feed.last[FieldInt(rec, "id", 0)];
      v.ts = FieldInt(rec, "timestamp_ms", 0);
      v.adm_bytes = g.adm_bytes[i++];
    }
  }
  feed.records = g.records;
  feed.batches = std::move(g.batches);
  return feed;
}

RunResult RunIngestUpsert(const Args& args, const Sizes& sizes, Tracer* tracer) {
  RunResult res;
  Report& r = res.report;
  Outcome& out = res.outcome;

  // Set-up: generate the feed and open the deployment, several times.
  Samples setup;
  IngestFeed feed;
  for (int i = 0; i < sizes.setup_reps; ++i) {
    int64_t t0 = NowNs();
    feed = IngestFeed();
    feed = MakeIngestFeed(args.seed, sizes.ingest_raw_bytes);
    {
      Store store(Scratch(args, "setup"), kLoadCachePages);
      store.Open("twitter", true);
    }
    setup.Add(static_cast<double>(NowNs() - t0) / 1e9);
  }
  uint64_t live_bytes = 0;
  std::vector<int64_t> live_ts;
  std::vector<int64_t> keys;
  for (const auto& [k, v] : feed.last) {
    live_bytes += v.adm_bytes;
    live_ts.push_back(v.ts);
    keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  ResetPeakRss();

  // Timed phase: repetitions of the whole feed into a fresh deployment, each
  // ending when every record is acknowledged, flushed and merged. A traced
  // run alternates untraced and traced repetitions.
  SpanLog* log_all = tracer != nullptr ? tracer->NewLog() : nullptr;
  // Per-repetition figures; the Submit and ack quantiles are taken within
  // each untraced repetition, then their median across repetitions is
  // reported.
  Samples rate_plain, rate_traced, ack_p50, ack_p90, ack_p99, storage, drain;
  Samples submit_p50, submit_p90, submit_p99;
  size_t acks_total = 0;
  Samples cpu_rec;
  std::map<std::string, Samples> qtimes;
  // Per-repetition store counters: samples and unit, by metric name.
  std::map<std::string, std::pair<Samples, std::string>> layer_samples;
  QueryCounts qcounts;
  uint64_t req = 0;
  int64_t phase_start = NowNs();
  int reps = 0;
  while (true) {
    double elapsed = static_cast<double>(NowNs() - phase_start) / 1e9;
    // One warm-up repetition, then at least one measured one of each kind.
    int min_reps = tracer != nullptr ? 3 : 2;
    if (reps >= min_reps && elapsed >= args.seconds) break;
    ++reps;
    bool warmup = reps == 1;
    bool traced = tracer != nullptr && reps % 2 == 0;
    SpanLog* log = traced ? log_all : nullptr;

    // Submit consumes its records: the first repetition takes the set-up
    // feed, later ones regenerate it (untimed).
    Batches batches = reps == 1 ? std::move(feed.batches)
                                : MakeIngestFeed(args.seed, sizes.ingest_raw_bytes).batches;
    Store store(Scratch(args, "ingest"), kLoadCachePages);
    Dataset* ds = store.Open("twitter", true);
    StoreCounters before = StoreCounters::Read(&store, {ds});
    double drain_s = 0;
    uint64_t failed_records = 0;
    Samples acks;
    Samples submits;  // the feed's Submit calls, in ms
    int64_t c0 = CpuNs();
    int64_t t0 = NowNs();
    {
      tc::IngestFrontEnd fe(ds, tc::GroupCommitConfig{});
      struct Pending {
        tc::IngestTicket ticket;
        int64_t submit_ns;
        uint64_t span;
        size_t records;
      };
      std::deque<Pending> window;
      auto complete = [&](Pending& p) {
        Status st = p.ticket.Wait();
        acks.Add(static_cast<double>(NowNs() - p.submit_ns) / 1e6);
        if (log != nullptr) log->Close(p.span);
        if (!st.ok()) failed_records += std::max<size_t>(1, p.ticket.errors().size());
      };
      for (size_t b = 0; b < batches.size(); ++b) {
        Pending p;
        p.records = batches[b].size();
        p.submit_ns = NowNs();
        ++req;
        p.span = log != nullptr ? log->Open("ingest.batch", 0, req) : 0;
        if (log != nullptr && b % 8 == 0) {
          ProbeEncode(ds, batches[b].front(), log, p.span, req);
        }
        {
          Span s(log, "ingest.submit", p.span, req);
          int64_t s0 = NowNs();
          p.ticket = fe.Submit(std::move(batches[b]), tc::IngestOp::kUpsert);
          submits.Add(static_cast<double>(NowNs() - s0) / 1e6);
        }
        window.push_back(std::move(p));
        while (window.size() > kIngestWindow) {
          complete(window.front());
          window.pop_front();
        }
      }
      while (!window.empty()) {
        complete(window.front());
        window.pop_front();
      }
      int64_t d0 = NowNs();
      Span s(log, "ingest.drain", 0, ++req);
      Status st = fe.Drain();
      if (st.ok()) st = ds->FlushAll();
      if (st.ok()) st = ds->WaitForBackgroundWork();
      if (!st.ok()) out.Fail("drain: " + st.ToString());
      drain_s = static_cast<double>(NowNs() - d0) / 1e9;
    }
    double secs = static_cast<double>(NowNs() - t0) / 1e9;
    double cpu_us_per_record = static_cast<double>(CpuNs() - c0) / 1e3 / static_cast<double>(feed.records);
    StoreCounters after = StoreCounters::Read(&store, {ds});
    out.attempted += feed.records;
    out.failed += failed_records;
    if (failed_records > 0) {
      out.errors.push_back(std::to_string(failed_records) + " records not acknowledged");
    }
    uint64_t on_disk = store.OnDiskBytes();
    if (!warmup) {
      (traced ? rate_traced : rate_plain).Add(static_cast<double>(feed.records) / secs);
      if (!traced) {
        ack_p50.Add(acks.Median());
        ack_p90.Add(acks.Quantile(0.90));
        ack_p99.Add(acks.Quantile(0.99));
        submit_p50.Add(submits.Median());
        submit_p90.Add(submits.Quantile(0.90));
        submit_p99.Add(submits.Quantile(0.99));
        acks_total += acks.size();
        cpu_rec.Add(cpu_us_per_record);
      }
      drain.Add(drain_s);
      storage.Add(static_cast<double>(on_disk) / static_cast<double>(live_bytes));
      Report rep;
      ReportStoreLayers(before, after, true, &rep);
      rep.Set("storage.on_disk_mib", MiB(static_cast<double>(on_disk)), "MiB");
      rep.Set("schema.inferred_fields", InferredFields(ds), "count");
      for (const Metric& m : rep.all()) {
        layer_samples[m.name].first.Add(m.value);
        layer_samples[m.name].second = m.unit;
      }
    }

    // Output checks (after the timed phase).
    QueryCounts round;
    TwitterChecks(ds, feed.last.size(), live_ts, log, ++req, &out, &qtimes, &round);
    qcounts = round;
    Rng pick(args.seed ^ static_cast<uint64_t>(reps));
    for (size_t i = 0; i < sizes.sampled_gets; ++i) {
      int64_t k = keys[pick.Uniform(keys.size())];
      ++req;
      Span root(log, "check.get", 0, req);
      auto got = DecomposedGet(ds, k, log, root.id(), req);
      bool ok = got.ok() && got.value().has_value() &&
                FieldInt(*got.value(), "id", -1) == k &&
                FieldInt(*got.value(), "timestamp_ms", -1) == feed.last[k].ts;
      out.Op(ok, "get " + std::to_string(k) + " did not return the last version fed");
    }
  }
  double peak_rss = PeakRssMib();

  r.Set("setup_s", setup.Median(), "s");
  r.Set("peak_rss_mib", peak_rss, "MiB");
  r.Set("storage_bytes_per_raw_byte", storage.Median(), "ratio");
  // The bounded latencies are those of the feed's Submit call: partitioning,
  // encoding and enqueueing. Ack latency is window / throughput of a closed
  // loop paced by the group-commit timer and thread wake-ups, so it follows
  // the host's scheduling more than the store; it is reported unbounded. So
  // is Submit's p99, which rests on the few calls that block on backpressure.
  r.Set("latency_p50_ms", submit_p50.Median(), "ms");
  r.Set("latency_tail_ms", submit_p90.Median(), "ms");
  r.Set("ingest_records_per_s", rate_plain.Median(), "1/s");
  r.Set("ingest_submit_p50_ms", submit_p50.Median(), "ms");
  r.Set("ingest_submit_p90_ms", submit_p90.Median(), "ms");
  r.Set("ingest_submit_p99_ms", submit_p99.Median(), "ms");
  r.Set("ingest_ack_p50_ms", ack_p50.Median(), "ms");
  r.Set("ingest_ack_p90_ms", ack_p90.Median(), "ms");
  r.Set("ingest_ack_p99_ms", ack_p99.Median(), "ms");
  r.Set("ingest.acks", static_cast<double>(acks_total), "count");
  r.Set("cpu_us_per_op", cpu_rec.Median(), "us");  // op = one record
  r.Set("ingest.repetitions", reps, "count");
  for (const auto& [name, s] : layer_samples) r.Set(name, s.first.Median(), s.second);
  r.Set("ingest.drain_s", drain.Median(), "s");
  ReportQueryTimes(qtimes, &r);
  qcounts.Report(&r);
  if (tracer != nullptr) {
    r.Set("trace.overhead_ratio", rate_plain.Median() / rate_traced.Median() - 1.0,
          "ratio");
    ReportSpanLayers(*tracer, &r);
  }
  return res;
}

// ---------------------------------------------------------------------------
// scan_cold: the read path over data four times the cache, no writes.
// ---------------------------------------------------------------------------
struct ScanOracle {
  uint64_t tweets = 0;
  uint64_t readings = 0;
  std::vector<int64_t> ts;
  uint64_t raw_bytes = 0;
  std::vector<AdmValue> sample;  // for the encode probe
  std::vector<int64_t> tweet_ids;
};

RunResult RunScanCold(const Args& args, const Sizes& sizes, Tracer* tracer) {
  RunResult res;
  Report& r = res.report;
  Outcome& out = res.outcome;

  // Set-up: generate both datasets, load them, reopen them cold. Repeated;
  // the last repetition's store is the one measured.
  Samples setup;
  std::unique_ptr<Store> store;
  Dataset* twitter = nullptr;
  Dataset* sensors = nullptr;
  ScanOracle oracle;
  for (int i = 0; i < sizes.setup_reps; ++i) {
    store.reset();
    int64_t t0 = NowNs();
    ScanOracle o;
    store = std::make_unique<Store>(Scratch(args, "scan"), kLoadCachePages);
    Generated tw = Generate("twitter", args.seed, sizes.scan_twitter_raw_bytes,
                            kLoadBatchRecords, [&](AdmValue* rec) {
                              o.ts.push_back(FieldInt(*rec, "timestamp_ms", 0));
                              o.tweet_ids.push_back(FieldInt(*rec, "id", 0));
                            });
    Generated se = Generate("sensors", args.seed, sizes.scan_sensors_raw_bytes,
                            kLoadBatchRecords, [&](AdmValue* rec) {
                              const AdmValue* rd = rec->FindField("readings");
                              if (rd != nullptr) o.readings += rd->size();
                            });
    o.tweets = tw.records;
    o.raw_bytes = tw.raw_bytes + se.raw_bytes;
    for (size_t b = 0; b < tw.batches.size(); b += 4) o.sample.push_back(tw.batches[b][0]);
    for (size_t b = 0; b < se.batches.size(); b += 4) o.sample.push_back(se.batches[b][0]);
    twitter = store->Open("twitter", true);
    sensors = store->Open("sensors", false);
    if (!Load(twitter, std::move(tw.batches), tc::IngestOp::kInsert) ||
        !Load(sensors, std::move(se.batches), tc::IngestOp::kInsert)) {
      out.Fail("set-up load failed");
      return res;
    }
    store->Close("twitter");
    store->Close("sensors");
    twitter = store->Open("twitter", true);
    sensors = store->Open("sensors", false);
    uint64_t cache_bytes =
        static_cast<uint64_t>(kScanCacheShare * static_cast<double>(store->OnDiskBytes()));
    store->cache()->SetCapacity(std::max<uint64_t>(1, cache_bytes / kPageSize));
    setup.Add(static_cast<double>(NowNs() - t0) / 1e9);
    oracle = std::move(o);
  }
  ResetPeakRss();

  // Timed phase: closed-loop rounds of the ten queries. A traced run
  // alternates untraced and traced rounds.
  tc::QueryOptions opt = DeploymentQueryOptions();
  auto [narrow, wide] = Windows(oracle.ts);
  struct Q {
    const char* name;
    std::function<tc::Result<tc::PaperQueryResult>()> fn;
    std::string expect;  // empty: only the hash is compared across rounds
  };
  std::vector<Q> round = {
      {"query.twitter_q1", [&] { return tc::TwitterQ1(twitter, opt); },
       "count=" + std::to_string(oracle.tweets)},
      {"query.twitter_q2", [&] { return tc::TwitterQ2(twitter, opt); }, ""},
      {"query.twitter_q3", [&] { return tc::TwitterQ3(twitter, opt); }, ""},
      {"query.twitter_q4", [&] { return tc::TwitterQ4(twitter, opt); }, ""},
      {"query.sensors_q1", [&] { return tc::SensorsQ1(sensors, opt); },
       "readings=" + std::to_string(oracle.readings)},
      {"query.sensors_q2", [&] { return tc::SensorsQ2(sensors, opt); }, ""},
      {"query.sensors_q3", [&] { return tc::SensorsQ3(sensors, opt); }, ""},
      {"query.sensors_q4", [&] { return tc::SensorsQ4(sensors, opt); }, ""},
      {"query.window_narrow",
       [&] { return tc::TwitterWindowCount(twitter, narrow.lo, narrow.hi, opt); },
       "count=" + std::to_string(narrow.Count(oracle.ts))},
      {"query.window_wide",
       [&] { return tc::TwitterWindowCount(twitter, wide.lo, wide.hi, opt); },
       "count=" + std::to_string(wide.Count(oracle.ts))},
  };
  std::vector<uint64_t> first_hash(round.size(), 0);
  std::vector<std::string> plans(round.size());
  SpanLog* log_all = tracer != nullptr ? tracer->NewLog() : nullptr;
  Samples rounds_plain, rounds_traced, cpu_round;
  std::map<std::string, Samples> qtimes;
  QueryCounts qcounts;
  std::vector<Dataset*> both = {twitter, sensors};
  StoreCounters before = StoreCounters::Read(store.get(), both);
  int64_t phase_start = NowNs();
  int n = 0;
  uint64_t req = 0;
  while (true) {
    double elapsed = static_cast<double>(NowNs() - phase_start) / 1e9;
    // Round 0 warms up and fixes the reference hashes; it is not measured.
    if (n >= 3 && elapsed >= args.seconds) break;
    bool warmup = n == 0;
    bool traced = tracer != nullptr && !warmup && n % 2 == 0;
    SpanLog* log = traced ? log_all : nullptr;
    ++req;
    QueryCounts counts;
    int64_t t0 = NowNs();
    int64_t c0 = CpuNs();
    {
      Span root(log, "query.round", 0, req);
      for (size_t q = 0; q < round.size(); ++q) {
        QueryRun run;
        bool ok = RunQuery(round[q].fn, round[q].name, log, root.id(), req, &run);
        const std::string& want = round[q].expect;
        if (n == 0) {
          first_hash[q] = run.result.result_hash;
          plans[q] = run.result.stats.plan;
        }
        out.Op(ok && (want.empty() || run.result.summary == want) &&
                   run.result.result_hash == first_hash[q],
               std::string(round[q].name) + " round " + std::to_string(n) + ": got '" +
                   run.result.summary + "'" +
                   (want.empty() ? " (hash changed)" : ", want '" + want + "'"));
        if (!warmup) qtimes[round[q].name].Add(run.seconds);
        counts.Add(run.result.stats);
      }
    }
    if (!warmup) {
      (traced ? rounds_traced : rounds_plain).Add(static_cast<double>(NowNs() - t0) / 1e9);
      if (!traced) cpu_round.Add(static_cast<double>(CpuNs() - c0) / 1e6);
    }
    qcounts = counts;
    ++n;
  }
  StoreCounters after = StoreCounters::Read(store.get(), both);
  double drain_s = 0;
  {
    Span s(log_all, "ingest.drain", 0, ++req);
    int64_t d0 = NowNs();
    for (Dataset* ds : both) {
      Status st = ds->FlushAll();
      if (st.ok()) st = ds->WaitForBackgroundWork();
      if (!st.ok()) out.Fail("drain: " + st.ToString());
    }
    drain_s = static_cast<double>(NowNs() - d0) / 1e9;
  }
  double peak_rss = PeakRssMib();

  // Output checks and layer probes after the timed phase.
  Rng pick(args.seed ^ 0x5ca9ULL);
  for (size_t i = 0; i < sizes.sampled_gets; ++i) {
    int64_t k = oracle.tweet_ids[pick.Uniform(oracle.tweet_ids.size())];
    ++req;
    Span root(log_all, "check.get", 0, req);
    auto got = DecomposedGet(twitter, k, log_all, root.id(), req);
    out.Op(got.ok() && got.value().has_value() && FieldInt(*got.value(), "id", -1) == k,
           "get " + std::to_string(k) + " did not return its record");
  }
  if (log_all != nullptr) {
    for (const AdmValue& rec : oracle.sample) {
      ++req;
      Span root(log_all, "probe.encode", 0, req);
      bool tweet = rec.FindField("timestamp_ms") != nullptr;
      ProbeEncode(tweet ? twitter : sensors, rec, log_all, root.id(), req);
    }
  }

  double round_s = rounds_plain.Median();
  r.Set("setup_s", setup.Median(), "s");
  r.Set("peak_rss_mib", peak_rss, "MiB");
  r.Set("storage_bytes_per_raw_byte",
        static_cast<double>(store->OnDiskBytes()) / static_cast<double>(oracle.raw_bytes),
        "ratio");
  r.Set("scan_queries_per_s", static_cast<double>(round.size()) / round_s, "1/s");
  r.Set("latency_p50_ms", round_s * 1e3, "ms");
  r.Set("latency_tail_ms", rounds_plain.Tail() * 1e3, "ms");
  r.Set("scan_round_p50_s", round_s, "s");
  r.Set("cpu_us_per_op", cpu_round.Median() * 1e3 / static_cast<double>(round.size()),
        "us");  // op = one query
  r.Set("scan.rounds", static_cast<double>(n), "count");
  r.Set("scan.latency_tail_quantile", rounds_plain.TailQuantileLevel(), "quantile");
  ReportStoreLayers(before, after, false, &r);
  r.Set("device.read_mib_per_round",
        MiB(static_cast<double>(after.device_read - before.device_read)) /
            static_cast<double>(n),
        "MiB");
  r.Set("storage.on_disk_mib", MiB(static_cast<double>(store->OnDiskBytes())), "MiB");
  r.Set("schema.inferred_fields", InferredFields(twitter) + InferredFields(sensors),
        "count");
  r.Set("ingest.drain_s", drain_s, "s");
  ReportQueryTimes(qtimes, &r);
  qcounts.Report(&r);
  for (size_t q = 0; q < round.size(); ++q) {
    if (!plans[q].empty()) std::printf("plan %s %s\n", round[q].name, plans[q].c_str());
  }
  if (tracer != nullptr) {
    r.Set("trace.overhead_ratio", rounds_traced.Median() / rounds_plain.Median() - 1.0,
          "ratio");
    ReportSpanLayers(*tracer, &r);
  }
  return res;
}

// ---------------------------------------------------------------------------
// lookup_mixed: point reads beside upserts, on a dataset the cache holds.
// ---------------------------------------------------------------------------

/// The record a client upserts as version `rev` of loaded record `base`:
/// deterministic in (seed, key, rev), so the oracle can rebuild it.
AdmValue UpsertVersion(const AdmValue& base, uint64_t seed, int64_t key, int64_t rev) {
  AdmValue rec = base;
  rec.AddField("rev", AdmValue::BigInt(rev));
  Rng rng(seed * 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(key) * 1000003ULL ^
          static_cast<uint64_t>(rev));
  MutateShape(&rec, &rng);
  return rec;
}

struct ClientStats {
  Samples get_us, upsert_us;
  std::atomic<uint64_t> ops{0};  // read by the main thread once per slice
  Outcome outcome;
};

RunResult RunLookupMixed(const Args& args, const Sizes& sizes, Tracer* tracer) {
  RunResult res;
  Report& r = res.report;
  Outcome& out = res.outcome;

  // Set-up: even ids only, loaded, reopened, cache sized to hold the data,
  // then warmed by one read of every key and one scan.
  Samples setup;
  std::unique_ptr<Store> store;
  Dataset* ds = nullptr;
  std::vector<AdmValue> base;
  std::vector<int64_t> ts;
  for (int i = 0; i < sizes.setup_reps; ++i) {
    store.reset();
    base.clear();
    ts.clear();
    int64_t t0 = NowNs();
    store = std::make_unique<Store>(Scratch(args, "lookup"), kLoadCachePages);
    Generated g = Generate("twitter", args.seed, sizes.lookup_raw_bytes,
                           kLoadBatchRecords, [&](AdmValue* rec) {
                             SetId(rec, 2 * FieldInt(*rec, "id", 0));
                             ts.push_back(FieldInt(*rec, "timestamp_ms", 0));
                           });
    for (const auto& batch : g.batches) base.insert(base.end(), batch.begin(), batch.end());
    ds = store->Open("twitter", true);
    if (!Load(ds, std::move(g.batches), tc::IngestOp::kInsert)) {
      out.Fail("set-up load failed");
      return res;
    }
    store->Close("twitter");
    ds = store->Open("twitter", true);
    uint64_t cache_bytes = static_cast<uint64_t>(
        kLookupCacheShare * static_cast<double>(store->OnDiskBytes()));
    store->cache()->SetCapacity(cache_bytes / kPageSize + 1);
    for (size_t k = 0; k < base.size(); ++k) {
      auto got = ds->Get(static_cast<int64_t>(2 * k));
      if (!got.ok() || !got.value().has_value()) {
        out.Fail("warm-up get " + std::to_string(2 * k));
        return res;
      }
    }
    (void)tc::TwitterQ1(ds, DeploymentQueryOptions());
    setup.Add(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const int64_t n_keys = static_cast<int64_t>(base.size());
  ResetPeakRss();

  // Timed phase: two closed-loop clients for --seconds. A traced run
  // alternates untraced and traced slices; each op is traced or not as its
  // slice was when it started.
  std::vector<int64_t> rev(base.size(), 0);  // oracle; index i is owned by client i%2
  std::atomic<bool> stop{false};
  std::atomic<int> slice{0};
  std::atomic<uint64_t> next_req{0};
  std::vector<ClientStats> clients(kLookupClients);
  std::vector<SpanLog*> logs(kLookupClients, nullptr);
  if (tracer != nullptr) {
    for (auto& l : logs) l = tracer->NewLog();
  }
  StoreCounters before = StoreCounters::Read(store.get(), {ds});
  auto client = [&](size_t c) {
    ClientStats& cs = clients[c];
    Rng rng(args.seed * 0x2545f4914f6cdd1dULL + c + 1);
    std::vector<int64_t> own;
    for (int64_t i = static_cast<int64_t>(c); i < n_keys; i += kLookupClients) {
      own.push_back(i);
    }
    uint64_t n_ops = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      bool traced = tracer != nullptr && slice.load(std::memory_order_relaxed) % 2 == 1;
      // In a traced slice, a sampled share of ops is recorded; a sampled Get
      // is issued as the calls Dataset::Get is made of.
      SpanLog* log = traced && ++n_ops % kTracedOpEvery == 0 ? logs[c] : nullptr;
      uint64_t req = next_req.fetch_add(1, std::memory_order_relaxed) + 1;
      double p = rng.NextDouble();
      int64_t t0 = NowNs();
      if (p < 0.90) {
        bool hit = p < 0.45;
        int64_t idx = hit ? own[rng.Uniform(own.size())] : 0;
        int64_t key = hit ? 2 * idx
                          : 2 * static_cast<int64_t>(rng.Uniform(
                                    static_cast<uint64_t>(n_keys - 1))) + 1;
        std::optional<tc::Result<std::optional<AdmValue>>> got;
        {
          Span root(log, "lookup.get", 0, req);
          if (log != nullptr) {
            got.emplace(DecomposedGet(ds, key, log, root.id(), req));
          } else {
            got.emplace(ds->Get(key));
          }
        }
        cs.get_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
        bool ok = got->ok();
        if (ok && hit) {
          const std::optional<AdmValue>& rec = got->value();
          ok = rec.has_value() && FieldInt(*rec, "id", -1) == key &&
               FieldInt(*rec, "rev", 0) == rev[static_cast<size_t>(idx)];
        } else if (ok) {
          ok = !got->value().has_value();
        }
        cs.outcome.Op(ok, (hit ? "hit " : "miss ") + std::to_string(key) +
                              " returned the wrong record");
      } else {
        int64_t idx = own[rng.Uniform(own.size())];
        int64_t next = rev[static_cast<size_t>(idx)] + 1;
        AdmValue rec = UpsertVersion(base[static_cast<size_t>(idx)], args.seed, 2 * idx,
                                     next);
        Status st;
        {
          Span root(log, "lookup.upsert", 0, req);
          if (log != nullptr) ProbeEncode(ds, rec, log, root.id(), req);
          Span s(log, "dataset.upsert", root.id(), req);
          st = ds->Upsert(rec);
        }
        cs.upsert_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
        if (st.ok()) rev[static_cast<size_t>(idx)] = next;
        cs.outcome.Op(st.ok(), "upsert " + std::to_string(2 * idx) + ": " + st.ToString());
      }
      cs.ops.fetch_add(1, std::memory_order_relaxed);
    }
  };
  int64_t phase_start = NowNs();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kLookupClients; ++c) threads.emplace_back(client, c);
  // Throughput and on-disk size are sampled once per slice and reported as
  // medians, so a passing stall of the machine moves a few slices, not the
  // result.
  Samples rate_plain, rate_traced, disk_bytes;
  int64_t last = phase_start;
  uint64_t last_ops = 0;
  int slices = 0;
  int64_t last_cpu = CpuNs();
  Samples cpu_op;
  while (static_cast<double>(NowNs() - phase_start) / 1e9 < args.seconds) {
    std::this_thread::sleep_for(std::chrono::duration<double>(kSliceSeconds));
    int64_t now = NowNs();
    uint64_t ops = 0;
    for (const ClientStats& cs : clients) ops += cs.ops.load(std::memory_order_relaxed);
    double rate = static_cast<double>(ops - last_ops) / (static_cast<double>(now - last) / 1e9);
    int64_t cpu = CpuNs();
    if (slices++ > 0) {  // the first slice includes the clients' start-up
      (slice.load() % 2 == 1 ? rate_traced : rate_plain).Add(rate);
      if (slice.load() % 2 == 0) {
        cpu_op.Add(static_cast<double>(cpu - last_cpu) / 1e3 / static_cast<double>(ops - last_ops));
      }
      disk_bytes.Add(static_cast<double>(store->OnDiskBytes()));
    }
    last = now;
    last_cpu = cpu;
    last_ops = ops;
    if (tracer != nullptr) slice.fetch_add(1);
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  double drain_s = 0;
  {
    Span s(tracer != nullptr ? logs[0] : nullptr, "ingest.drain", 0, next_req + 1);
    int64_t d0 = NowNs();
    Status st = ds->FlushAll();
    if (st.ok()) st = ds->WaitForBackgroundWork();
    if (!st.ok()) out.Fail("drain: " + st.ToString());
    drain_s = static_cast<double>(NowNs() - d0) / 1e9;
  }
  StoreCounters after = StoreCounters::Read(store.get(), {ds});
  double peak_rss = PeakRssMib();

  ClientStats all;
  for (ClientStats& cs : clients) {
    all.get_us.Append(cs.get_us);
    all.upsert_us.Append(cs.upsert_us);
    out.attempted += cs.outcome.attempted;
    out.failed += cs.outcome.failed;
    for (const std::string& e : cs.outcome.errors) out.errors.push_back(e);
  }

  // Live data after the phase: each key's newest version, rebuilt.
  uint64_t live_bytes = 0;
  for (size_t i = 0; i < base.size(); ++i) {
    live_bytes += tc::PrintAdm(rev[i] == 0 ? base[i]
                                           : UpsertVersion(base[i], args.seed,
                                                           2 * static_cast<int64_t>(i),
                                                           rev[i]))
                      .size();
  }
  std::map<std::string, Samples> qtimes;
  QueryCounts qcounts;
  TwitterChecks(ds, base.size(), ts, tracer != nullptr ? logs[0] : nullptr,
                next_req + 2, &out, &qtimes, &qcounts);

  uint64_t on_disk = store->OnDiskBytes();
  r.Set("setup_s", setup.Median(), "s");
  r.Set("peak_rss_mib", peak_rss, "MiB");
  r.Set("storage_bytes_per_raw_byte", disk_bytes.Median() / static_cast<double>(live_bytes),
        "ratio");
  r.Set("latency_p50_ms", all.get_us.Median() / 1e3, "ms");
  // The bounded tail is p95: the ~1% of Gets that miss the cache put p99 on
  // the steep edge between hit and miss latency, where it swings between
  // runs; get_p99_us reports it unbounded.
  r.Set("latency_tail_ms", all.get_us.Quantile(0.95) / 1e3, "ms");
  r.Set("lookup_ops_per_s", rate_plain.Median(), "1/s");
  r.Set("cpu_us_per_op", cpu_op.Median(), "us");  // op = one Get or Upsert
  r.Set("get_p50_us", all.get_us.Median(), "us");
  r.Set("get_p99_us", all.get_us.Quantile(0.99), "us");
  r.Set("upsert_p50_us", all.upsert_us.Median(), "us");
  r.Set("upsert_p99_us", all.upsert_us.Quantile(0.99), "us");
  r.Set("lookup.gets", static_cast<double>(all.get_us.size()), "count");
  r.Set("lookup.upserts", static_cast<double>(all.upsert_us.size()), "count");
  ReportStoreLayers(before, after, true, &r);
  r.Set("storage.on_disk_mib", MiB(static_cast<double>(on_disk)), "MiB");
  r.Set("schema.inferred_fields", InferredFields(ds), "count");
  r.Set("ingest.drain_s", drain_s, "s");
  ReportQueryTimes(qtimes, &r);
  qcounts.Report(&r);
  if (tracer != nullptr) {
    r.Set("trace.overhead_ratio", rate_plain.Median() / rate_traced.Median() - 1.0,
          "ratio");
    ReportSpanLayers(*tracer, &r);
  }
  return res;
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------
int Usage(const char* msg) {
  std::fprintf(stderr,
               "tcbench: %s\nusage: tcbench --workload "
               "<ingest_upsert|scan_cold|lookup_mixed> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--out-dir <dir>]\n",
               msg);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

}  // namespace
}  // namespace tcbench

int main(int argc, char** argv) {
  using namespace tcbench;
  // Every TC_* environment variable silently changes the store's behaviour;
  // a measurement taken under one would not be comparable.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "TC_", 3) == 0) {
      std::string name(*e, std::strcspn(*e, "="));
      std::fprintf(stderr,
                   "tcbench: refusing to run: environment variable %s is set; the "
                   "benchmark pins its configuration, unset it\n",
                   name.c_str());
      return 2;
    }
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  const Sizes& sizes = args.smoke ? kSmokeSizes : kFullSizes;
  std::filesystem::create_directories(args.out_dir);

  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>();
  RunResult res;
  if (args.workload == "ingest_upsert") {
    res = RunIngestUpsert(args, sizes, tracer.get());
  } else if (args.workload == "scan_cold") {
    res = RunScanCold(args, sizes, tracer.get());
  } else if (args.workload == "lookup_mixed") {
    res = RunLookupMixed(args, sizes, tracer.get());
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  Report& r = res.report;
  Outcome& out = res.outcome;
  r.Set("failed_op_ratio",
        static_cast<double>(out.failed) / static_cast<double>(std::max<uint64_t>(1, out.attempted)),
        "ratio");

  std::string settings = SettingsJson(args, sizes);
  std::printf("settings %s\n", settings.c_str());
  for (const Metric& m : r.all()) {
    std::printf("metric %s %s %s\n", m.name.c_str(), JsonNumber(m.value).c_str(),
                m.unit.c_str());
  }
  for (const std::string& e : out.errors) std::printf("check failed: %s\n", e.c_str());

  std::string tag = args.workload + "-" + std::to_string(args.seed);
  if (tracer != nullptr) {
    std::string path = args.out_dir + "/trace-" + tag + ".jsonl";
    if (!tracer->WriteJsonLines(path)) {
      std::fprintf(stderr, "tcbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans %s\n", path.c_str());
  }

  JsonObject all_metrics;
  for (const Metric& m : r.all()) {
    all_metrics.Raw(m.name, JsonObject().Num("value", m.value).Str("unit", m.unit).str());
  }
  std::ofstream(args.out_dir + "/report-" + tag + "-trace" + (args.trace ? "1" : "0") +
                ".json")
      << JsonObject()
             .Raw("settings", settings)
             .Bool("correct", out.failed == 0)
             .Num("attempted", static_cast<double>(out.attempted))
             .Num("failed", static_cast<double>(out.failed))
             .Raw("metrics", all_metrics.str())
             .str()
      << "\n";

  JsonObject metrics;
  bool missing = false;
  auto emit = [&](const char* name) {
    const Metric* m = r.Find(name);
    if (m == nullptr) {
      std::fprintf(stderr, "tcbench: metric %s was not measured\n", name);
      missing = true;
      return;
    }
    metrics.Raw(name, JsonObject().Num("value", m->value).Str("unit", m->unit).str());
  };
  if (args.trace) {
    for (const char* name : kPerLayer) emit(name);
  } else {
    for (const char* name : kEndToEnd) emit(name);
  }
  if (missing) return 1;
  std::printf("%s\n", JsonObject()
                          .Bool("correct", out.failed == 0)
                          .Raw("attempted", std::to_string(out.attempted))
                          .Raw("failed", std::to_string(out.failed))
                          .Raw("metrics", metrics.str())
                          .str()
                          .c_str());
  std::fflush(stdout);
  return out.failed == 0 ? 0 : 1;
}
