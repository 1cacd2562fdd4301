#include "query/vec/vec_operator.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/env_config.h"
#include "format/vector_format.h"
#include "query/scan_predicate.h"

namespace tc {

size_t VecBatchRowsFromEnv() {
  return static_cast<size_t>(std::max<int64_t>(1, EnvInt64("TC_VEC_BATCH_ROWS", 1024)));
}

bool VecEnabledFromEnv() { return EnvInt64("TC_VEC_ENABLE", 1) != 0; }

// ---------------------------------------------------------------------------
// Columnar fast-path extraction: one walk over the record's packed vectors
// fills one slot per requested path, in place — strings stay string_views into
// the payload (appended straight into the column arena), fixed scalars decode
// straight from the payload. Exact paths take the first occurrence; [*] paths
// (the access pushed through UNNEST, paper §3.4.2) collect every scalar match
// in record order, exactly as GetValuesVector flattens them, and fill the
// column's list family. The walk skeleton mirrors
// ScanPredicateMatcher::MatchVector / GetValuesVector (scope stack,
// active-path matching, declared-type propagation); a structural change to
// any of the three walks MUST be mirrored in the others. Only the terminal
// differs: a NESTED value at a terminal bails the whole record out to the
// generic GetValues fallback (subtree materialization is exactly what this
// path avoids implementing twice).
// ---------------------------------------------------------------------------

class VecPathExtractor {
 public:
  /// `paths` must outlive the extractor; every path is non-empty — the
  /// eligibility check in VecScanOperator::Open.
  explicit VecPathExtractor(const std::vector<FieldPath>& paths)
      : paths_(&paths), slots_(paths.size()) {
    for (size_t p = 0; p < paths.size(); ++p) {
      slots_[p].is_list = paths[p].HasWildcard();
      if (slots_[p].is_list) {
        any_list_ = true;
      } else {
        ++exact_paths_;
      }
    }
  }

  /// One scalar match; `fixed` / `var` point into the payload and stay valid
  /// until the cursor moves off it.
  struct Match {
    AdmTag tag = AdmTag::kMissing;
    const uint8_t* fixed = nullptr;
    std::string_view var;
  };
  struct Slot {
    bool is_list = false;      // [*] path: `list` holds every match
    bool set = false;          // exact path: `value` was found
    Match value;
    std::vector<Match> list;
  };

  /// Attempts the direct extraction from one payload. Returns false (slots
  /// unspecified) when the record needs the GetValues fallback.
  Result<bool> Extract(const VectorRecordView& view, const DatasetType& type,
                       const Schema* schema);

  const Slot& slot(size_t i) const { return slots_[i]; }

 private:
  struct Active {
    size_t path;
    size_t step;
  };
  struct Scope {
    bool is_object = false;
    size_t item_index = 0;
    const TypeDescriptor* decl = nullptr;
    std::vector<Active> actives;
  };

  Scope& PushScope() {
    if (depth_ == scopes_.size()) scopes_.emplace_back();
    Scope& s = scopes_[depth_++];
    s.is_object = false;
    s.item_index = 0;
    s.decl = nullptr;
    s.actives.clear();
    return s;
  }

  const std::vector<FieldPath>* paths_;
  std::vector<Slot> slots_;
  size_t exact_paths_ = 0;
  bool any_list_ = false;
  std::vector<Scope> scopes_;
  size_t depth_ = 0;
  std::vector<Active> child_actives_;
  std::string name_;
};

Result<bool> VecPathExtractor::Extract(const VectorRecordView& view,
                                       const DatasetType& type,
                                       const Schema* schema) {
  TC_RETURN_IF_ERROR(view.Validate());
  const std::vector<FieldPath>& paths = *paths_;
  for (Slot& slot : slots_) {
    slot.set = false;
    slot.list.clear();
  }
  // Exact paths resolve at most once; a record with a [*] path is walked to
  // the end, since any later item may still match.
  size_t remaining = exact_paths_;

  VectorRecordWalker walker(view);
  VectorRecordWalker::Item it;
  bool done = false;
  TC_RETURN_IF_ERROR(walker.Next(&it, &done));
  if (done || it.tag != AdmTag::kObject) {
    return Status::Corruption("vb: record root is not an object");
  }

  depth_ = 0;
  {
    Scope& root = PushScope();
    root.is_object = true;
    root.decl = type.root.get();
    for (size_t p = 0; p < paths.size(); ++p) root.actives.push_back({p, 0});
  }
  while (true) {
    TC_RETURN_IF_ERROR(walker.Next(&it, &done));
    if (done) break;
    if (it.tag == AdmTag::kEndNest) {
      if (--depth_ == 0) return Status::Corruption("vb: scope underflow");
      if (!scopes_[depth_ - 1].is_object) ++scopes_[depth_ - 1].item_index;
      continue;
    }
    Scope& scope = scopes_[depth_ - 1];
    name_.clear();
    if (scope.is_object && !scope.actives.empty()) {
      TC_RETURN_IF_ERROR(ResolveVectorFieldName(it, scope.decl, schema, &name_));
    }

    child_actives_.clear();
    for (const Active& a : scope.actives) {
      const PathStep& st = paths[a.path].steps[a.step];
      bool match = false;
      if (scope.is_object) {
        match = st.kind == PathStep::kField && st.name == name_;
      } else if (st.kind == PathStep::kWildcard) {
        match = true;
      } else if (st.kind == PathStep::kIndex) {
        match = st.index == scope.item_index;
      }
      if (!match) continue;
      if (a.step + 1 < paths[a.path].steps.size()) {
        child_actives_.push_back({a.path, a.step + 1});
        continue;
      }
      // Terminal. Exact paths take first-occurrence-wins (records violating
      // the unique-field-name contract), matching GetValuesVector.
      Slot& slot = slots_[a.path];
      if (slot.set) continue;
      if (IsNested(it.tag)) return false;  // subtree: generic fallback
      Match m{it.tag, it.fixed, it.var};
      if (slot.is_list) {
        slot.list.push_back(m);
        continue;
      }
      slot.set = true;
      slot.value = m;
      if (--remaining == 0 && !any_list_) return true;
    }

    const TypeDescriptor* item_decl = nullptr;
    if (scope.is_object) {
      if (it.declared && scope.decl != nullptr &&
          it.declared_index < scope.decl->field_count()) {
        item_decl = scope.decl->field_type(it.declared_index).get();
      }
    } else {
      item_decl = scope.decl;
    }

    if (IsNested(it.tag)) {
      bool child_is_object = it.tag == AdmTag::kObject;
      const TypeDescriptor* child_decl =
          child_is_object ? item_decl
                          : (item_decl != nullptr ? item_decl->item_type().get()
                                                  : nullptr);
      Scope& child = PushScope();
      child.is_object = child_is_object;
      child.decl = child_decl;
      std::swap(child.actives, child_actives_);
    } else if (!scope.is_object) {
      ++scope.item_index;
    }
  }
  return true;  // unset exact slots are missing values
}

namespace {

/// Appends one extracted scalar without building an AdmValue for the common
/// double / bigint / string payloads.
void AppendMatch(const VecPathExtractor::Match& m, ColumnVector* col) {
  switch (m.tag) {
    case AdmTag::kDouble:
      col->AppendDouble(m.tag, GetDouble(m.fixed));
      return;
    case AdmTag::kBigInt:
      col->AppendInt64(m.tag, static_cast<int64_t>(GetFixed64(m.fixed)));
      return;
    case AdmTag::kString:
    case AdmTag::kBinary:
      col->AppendString(m.tag, m.var);
      return;
    default: {
      VectorRecordWalker::Item it;
      it.tag = m.tag;
      it.fixed = m.fixed;
      it.var = m.var;
      col->AppendValue(DecodeVectorScalarItem(it));
      return;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// VecScanOperator
// ---------------------------------------------------------------------------

VecScanOperator::VecScanOperator(DatasetPartition* partition,
                                 const RecordAccessor* accessor, ScanSpec spec,
                                 size_t batch_rows, ScanCounters* counters,
                                 const PartitionReadView* view,
                                 VecOpCounters* op_counters)
    : partition_(partition), accessor_(accessor), spec_(std::move(spec)),
      batch_rows_(std::max<size_t>(1, batch_rows)), counters_(counters),
      shared_view_(view), op_counters_(op_counters) {}

VecScanOperator::~VecScanOperator() = default;

Status VecScanOperator::Open() {
  view_ = shared_view_ != nullptr ? shared_view_->primary
                                  : partition_->primary()->AcquireView();
  it_ = std::make_unique<LsmTree::Iterator>(view_);
  counts_in_filter_ = false;
  if (spec_.predicate != nullptr) {
    if (!accessor_->SupportsScanPredicate()) {
      return Status::NotSupported("scan predicate on this storage format");
    }
    // Identical lowering to ScanOperator::Open: the cursor's filter callback
    // owns the counters and the reusable matcher.
    pred_paths_ = spec_.predicate->Paths();
    matcher_ = std::make_unique<ScanPredicateMatcher>();
    const RecordAccessor* accessor = accessor_;
    std::shared_ptr<const ScanPredicate> pred = spec_.predicate;
    const std::vector<FieldPath>* paths = &pred_paths_;
    ScanCounters* counters = counters_;
    ScanPredicateMatcher* matcher = matcher_.get();
    it_->set_payload_filter(
        [accessor, pred, paths, counters,
         matcher](std::string_view payload) -> Result<bool> {
          ++counters->rows;
          counters->bytes += payload.size();
          TC_ASSIGN_OR_RETURN(bool match,
                              matcher->Matches(*accessor, payload, *pred, *paths));
          if (!match) ++counters->filtered_pre_assembly;
          return match;
        });
    counts_in_filter_ = true;
  }
  // Columnar fast path: vector-based records with consolidated access
  // extract exact and [*] scalar paths without the generic builder machinery.
  extractor_.reset();
  bool fast = !spec_.paths.empty() &&
              (accessor_->mode() == SchemaMode::kInferred ||
               accessor_->mode() == SchemaMode::kSchemalessVB) &&
              accessor_->consolidate();
  for (const FieldPath& p : spec_.paths) {
    if (p.steps.empty()) fast = false;
  }
  if (fast) extractor_ = std::make_unique<VecPathExtractor>(spec_.paths);
  first_ = true;
  return Status::OK();
}

Result<bool> VecScanOperator::Next(ColumnBatch* batch) {
  batch->Reset(spec_.paths.size());
  batch->partition = partition_->partition_id();
  while (batch->rows < batch_rows_) {
    if (first_) {
      TC_RETURN_IF_ERROR(it_->SeekToFirst());
      first_ = false;
    } else if (it_->Valid()) {
      TC_RETURN_IF_ERROR(it_->Next());
    }
    if (!it_->Valid()) break;
    std::string_view payload = it_->payload();
    if (!counts_in_filter_) {
      ++counters_->rows;
      counters_->bytes += payload.size();
    }
    if (!spec_.paths.empty()) {
      bool fast_done = false;
      if (extractor_ != nullptr) {
        VectorRecordView view(reinterpret_cast<const uint8_t*>(payload.data()),
                              payload.size());
        TC_ASSIGN_OR_RETURN(
            fast_done,
            extractor_->Extract(view, *accessor_->type(), &accessor_->schema()));
      }
      if (fast_done) {
        for (size_t c = 0; c < spec_.paths.size(); ++c) {
          const VecPathExtractor::Slot& slot = extractor_->slot(c);
          ColumnVector& col = batch->cols[c];
          if (slot.is_list) {
            ColumnVector* items = col.BeginList(AdmTag::kArray);
            for (const VecPathExtractor::Match& m : slot.list) AppendMatch(m, items);
            col.EndList();
          } else if (slot.set) {
            AppendMatch(slot.value, &col);
          } else {
            col.AppendMissing();
          }
        }
      } else {
        scratch_.clear();
        TC_RETURN_IF_ERROR(accessor_->GetValues(payload, spec_.paths, &scratch_));
        for (size_t c = 0; c < spec_.paths.size(); ++c) {
          batch->cols[c].AppendValue(scratch_[c]);
        }
      }
    }
    if (spec_.attach_record) {
      batch->records.push_back(
          std::make_shared<Buffer>(payload.begin(), payload.end()));
    }
    ++batch->rows;
  }
  if (batch->rows == 0) return false;
  if (op_counters_ != nullptr) {
    ++op_counters_->batches;
    op_counters_->rows += batch->rows;
    op_counters_->bytes += batch->ByteSize();
  }
  return true;
}

// ---------------------------------------------------------------------------
// VecFilterOperator
// ---------------------------------------------------------------------------

namespace {

bool Int64Satisfies(int64_t v, CompareOp op, int64_t lit) {
  switch (op) {
    case CompareOp::kEq: return v == lit;
    case CompareOp::kNe: return v != lit;
    case CompareOp::kLt: return v < lit;
    case CompareOp::kLe: return v <= lit;
    case CompareOp::kGt: return v > lit;
    case CompareOp::kGe: return v >= lit;
  }
  return false;
}

/// True when every literal of the term is int-family: the typed int64 column
/// compare is then exactly AdmScalarSatisfies for int-family values.
bool AllIntLiterals(const PredicateTerm& term) {
  if (term.in_list.empty()) return IsIntFamily(term.literal.tag());
  for (const AdmValue& l : term.in_list) {
    if (!IsIntFamily(l.tag())) return false;
  }
  return true;
}

bool TermMatchesAt(const ColumnVector& col, size_t r, const PredicateTerm& term,
                   bool int_fast) {
  if (!col.HasValueAt(r)) return false;
  if (int_fast && !term.path.HasWildcard() &&
      col.kind() == ColumnVector::Kind::kInt64 && IsIntFamily(col.TagAt(r))) {
    int64_t v = col.Int64At(r);
    if (term.in_list.empty()) {
      return Int64Satisfies(v, term.op, term.literal.int_value());
    }
    for (const AdmValue& l : term.in_list) {
      if (Int64Satisfies(v, term.op, l.int_value())) return true;
    }
    return false;
  }
  return EvalPredicateTerm(col.ValueAt(r), term);
}

}  // namespace

VecFilterOperator::VecFilterOperator(std::unique_ptr<VecOperator> child,
                                     std::shared_ptr<const ScanPredicate> pred,
                                     size_t first_col, VecOpCounters* op_counters)
    : child_(std::move(child)), pred_(std::move(pred)), first_col_(first_col),
      op_counters_(op_counters) {}

Status VecFilterOperator::Open() {
  int_fast_.assign(pred_->terms.size(), 0);
  for (size_t t = 0; t < pred_->terms.size(); ++t) {
    int_fast_[t] = AllIntLiterals(pred_->terms[t]) ? 1 : 0;
  }
  return child_->Open();
}

Result<bool> VecFilterOperator::Next(ColumnBatch* batch) {
  while (true) {
    TC_ASSIGN_OR_RETURN(bool ok, child_->Next(batch));
    if (!ok) return false;
    TC_CHECK(first_col_ + pred_->terms.size() <= batch->cols.size());
    sel_scratch_.clear();
    batch->ForEachActive([&](size_t r) {
      for (size_t t = 0; t < pred_->terms.size(); ++t) {
        if (!TermMatchesAt(batch->cols[first_col_ + t], r, pred_->terms[t],
                           int_fast_[t] != 0)) {
          return;
        }
      }
      sel_scratch_.push_back(static_cast<uint32_t>(r));
    });
    if (sel_scratch_.empty()) continue;  // fully filtered: pull the next batch
    std::swap(batch->sel, sel_scratch_);
    batch->sel_active = true;
    if (op_counters_ != nullptr) {
      ++op_counters_->batches;
      op_counters_->rows += batch->sel.size();
      op_counters_->bytes += batch->ByteSize();
    }
    return true;
  }
}

// ---------------------------------------------------------------------------
// VecProjectOperator
// ---------------------------------------------------------------------------

VecProjectOperator::VecProjectOperator(std::unique_ptr<VecOperator> child,
                                       std::vector<size_t> keep,
                                       VecOpCounters* op_counters)
    : child_(std::move(child)), keep_(std::move(keep)), op_counters_(op_counters) {}

Status VecProjectOperator::Open() { return child_->Open(); }

Result<bool> VecProjectOperator::Next(ColumnBatch* batch) {
  TC_ASSIGN_OR_RETURN(bool ok, child_->Next(batch));
  if (!ok) return false;
  std::vector<ColumnVector> out;
  out.reserve(keep_.size());
  for (size_t k : keep_) {
    TC_CHECK(k < batch->cols.size());
    out.push_back(std::move(batch->cols[k]));
  }
  batch->cols = std::move(out);
  if (op_counters_ != nullptr) {
    ++op_counters_->batches;
    op_counters_->rows += batch->ActiveRows();
    op_counters_->bytes += batch->ByteSize();
  }
  return true;
}

// ---------------------------------------------------------------------------
// Bridges
// ---------------------------------------------------------------------------

VecToRowBridge::VecToRowBridge(std::unique_ptr<VecOperator> child,
                               VecOpCounters* op_counters)
    : child_(std::move(child)), op_counters_(op_counters) {}

Status VecToRowBridge::Open() {
  pos_ = 0;
  have_ = false;
  return child_->Open();
}

Result<bool> VecToRowBridge::Next(Row* row) {
  while (true) {
    if (have_ && pos_ < order_.size()) {
      size_t r = order_[pos_++];
      row->partition = batch_.partition;
      row->cols.clear();
      for (ColumnVector& c : batch_.cols) row->cols.push_back(c.TakeValueAt(r));
      row->record = r < batch_.records.size() ? batch_.records[r] : nullptr;
      return true;
    }
    have_ = false;
    TC_ASSIGN_OR_RETURN(bool ok, child_->Next(&batch_));
    if (!ok) return false;
    order_.clear();
    batch_.ForEachActive(
        [this](size_t r) { order_.push_back(static_cast<uint32_t>(r)); });
    pos_ = 0;
    have_ = true;
    if (op_counters_ != nullptr) {
      ++op_counters_->batches;
      op_counters_->rows += order_.size();
    }
  }
}

RowToVecBridge::RowToVecBridge(std::unique_ptr<Operator> child, size_t num_cols,
                               size_t batch_rows, VecOpCounters* op_counters)
    : child_(std::move(child)), num_cols_(num_cols),
      batch_rows_(std::max<size_t>(1, batch_rows)), op_counters_(op_counters) {}

Status RowToVecBridge::Open() { return child_->Open(); }

Result<bool> RowToVecBridge::Next(ColumnBatch* batch) {
  batch->Reset(num_cols_);
  Row row;
  while (batch->rows < batch_rows_) {
    TC_ASSIGN_OR_RETURN(bool ok, child_->Next(&row));
    if (!ok) break;
    batch->partition = row.partition;
    for (size_t c = 0; c < num_cols_; ++c) {
      if (c < row.cols.size()) {
        batch->cols[c].AppendValue(row.cols[c]);
      } else {
        batch->cols[c].AppendMissing();
      }
    }
    batch->records.push_back(std::move(row.record));
    ++batch->rows;
    row = Row{};
  }
  if (batch->rows == 0) return false;
  if (op_counters_ != nullptr) {
    ++op_counters_->batches;
    op_counters_->rows += batch->rows;
    op_counters_->bytes += batch->ByteSize();
  }
  return true;
}

}  // namespace tc
