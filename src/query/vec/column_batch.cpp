#include "query/vec/column_batch.h"

#include "common/status.h"

namespace tc {
namespace {

bool IsInt64StorageTag(AdmTag t) { return IsIntFamily(t) || t == AdmTag::kBoolean; }
bool IsDoubleStorageTag(AdmTag t) { return t == AdmTag::kFloat || t == AdmTag::kDouble; }
bool IsStringStorageTag(AdmTag t) {
  return t == AdmTag::kString || t == AdmTag::kBinary || t == AdmTag::kUuid;
}

bool IsListOfScalars(const AdmValue& v) {
  if (!v.is_collection()) return false;
  for (size_t k = 0; k < v.size(); ++k) {
    if (IsNested(v.item(k).tag())) return false;
  }
  return true;
}

AdmValue IntTagValue(AdmTag tag, int64_t v) {
  switch (tag) {
    case AdmTag::kBoolean:  return AdmValue::Boolean(v != 0);
    case AdmTag::kTinyInt:  return AdmValue::TinyInt(static_cast<int8_t>(v));
    case AdmTag::kSmallInt: return AdmValue::SmallInt(static_cast<int16_t>(v));
    case AdmTag::kInt:      return AdmValue::Int(static_cast<int32_t>(v));
    case AdmTag::kBigInt:   return AdmValue::BigInt(v);
    case AdmTag::kDate:     return AdmValue::Date(static_cast<int32_t>(v));
    case AdmTag::kTime:     return AdmValue::Time(static_cast<int32_t>(v));
    case AdmTag::kDateTime: return AdmValue::DateTime(v);
    case AdmTag::kDuration: return AdmValue::Duration(v);
    default:
      TC_CHECK(false);
      return AdmValue::Missing();
  }
}

AdmValue StringTagValue(AdmTag tag, std::string_view bytes) {
  switch (tag) {
    case AdmTag::kString: return AdmValue::String(std::string(bytes));
    case AdmTag::kBinary: return AdmValue::Binary(std::string(bytes));
    case AdmTag::kUuid:   return AdmValue::Uuid(std::string(bytes));
    default:
      TC_CHECK(false);
      return AdmValue::Missing();
  }
}

}  // namespace

void ColumnVector::Clear() {
  kind_ = Kind::kNone;
  tags_.clear();
  ints_.clear();
  doubles_.clear();
  ends_.clear();
  arena_.clear();
  list_ends_.clear();
  if (items_ != nullptr) items_->Clear();
  values_.clear();
}

void ColumnVector::AppendValueless(AdmTag tag) {
  tags_.push_back(tag);
  switch (kind_) {
    case Kind::kNone:
      break;
    case Kind::kInt64:
      ints_.push_back(0);
      break;
    case Kind::kDouble:
      doubles_.push_back(0);
      break;
    case Kind::kString:
      ends_.push_back(static_cast<uint32_t>(arena_.size()));
      break;
    case Kind::kList:
      list_ends_.push_back(static_cast<uint32_t>(items_->size()));
      break;
    case Kind::kValue:
      values_.emplace_back(tag);
      break;
  }
}

ColumnVector::Kind ColumnVector::Adopt(Kind want) {
  if (kind_ == want || kind_ == Kind::kValue) return kind_;
  if (kind_ == Kind::kNone) {
    // First typed value: pick the family and backfill placeholder slots for
    // the valueless rows appended before it.
    kind_ = want;
    switch (want) {
      case Kind::kInt64:
        ints_.assign(tags_.size(), 0);
        break;
      case Kind::kDouble:
        doubles_.assign(tags_.size(), 0);
        break;
      case Kind::kString:
        ends_.assign(tags_.size(), 0);
        break;
      case Kind::kList:
        list_ends_.assign(tags_.size(), 0);
        break;
      default:
        values_.clear();
        for (AdmTag t : tags_) values_.emplace_back(t);
        break;
    }
    return kind_;
  }
  DemoteToValues();
  return kind_;
}

void ColumnVector::DemoteToValues() {
  std::vector<AdmValue> vals;
  vals.reserve(tags_.size());
  for (size_t i = 0; i < tags_.size(); ++i) vals.push_back(ValueAt(i));
  values_ = std::move(vals);
  ints_.clear();
  doubles_.clear();
  ends_.clear();
  arena_.clear();
  list_ends_.clear();
  if (items_ != nullptr) items_->Clear();  // kept as the BeginList scratch
  kind_ = Kind::kValue;
}

void ColumnVector::AppendInt64(AdmTag tag, int64_t v) {
  if (Adopt(Kind::kInt64) == Kind::kInt64) {
    tags_.push_back(tag);
    ints_.push_back(v);
    return;
  }
  tags_.push_back(tag);
  values_.push_back(IntTagValue(tag, v));
}

void ColumnVector::AppendDouble(AdmTag tag, double v) {
  if (Adopt(Kind::kDouble) == Kind::kDouble) {
    tags_.push_back(tag);
    doubles_.push_back(v);
    return;
  }
  tags_.push_back(tag);
  values_.push_back(tag == AdmTag::kFloat ? AdmValue::Float(static_cast<float>(v))
                                          : AdmValue::Double(v));
}

void ColumnVector::AppendString(AdmTag tag, std::string_view bytes) {
  if (Adopt(Kind::kString) == Kind::kString) {
    tags_.push_back(tag);
    arena_.append(bytes.data(), bytes.size());
    ends_.push_back(static_cast<uint32_t>(arena_.size()));
    return;
  }
  tags_.push_back(tag);
  values_.push_back(StringTagValue(tag, bytes));
}

ColumnVector* ColumnVector::BeginList(AdmTag tag) {
  if (items_ == nullptr) items_ = std::make_unique<ColumnVector>();
  Adopt(Kind::kList);
  tags_.push_back(tag);
  return items_.get();
}

void ColumnVector::EndList() {
  if (kind_ == Kind::kList) {
    list_ends_.push_back(static_cast<uint32_t>(items_->size()));
    return;
  }
  AdmValue list(tags_.back());
  list.Reserve(items_->size());
  for (size_t j = 0; j < items_->size(); ++j) list.Append(items_->TakeValueAt(j));
  values_.push_back(std::move(list));
  items_->Clear();
}

void ColumnVector::AppendValue(const AdmValue& v) {
  AdmTag t = v.tag();
  if (t == AdmTag::kMissing || t == AdmTag::kNull) {
    AppendValueless(t);
  } else if (IsInt64StorageTag(t)) {
    AppendInt64(t, v.int_value());
  } else if (IsDoubleStorageTag(t)) {
    AppendDouble(t, v.double_value());
  } else if (IsStringStorageTag(t)) {
    AppendString(t, v.string_value());
  } else if ((kind_ == Kind::kNone || kind_ == Kind::kList) && IsListOfScalars(v)) {
    ColumnVector* items = BeginList(t);
    for (size_t k = 0; k < v.size(); ++k) items->AppendValue(v.item(k));
    EndList();
  } else {
    // Points, objects, collections with nested items: generic storage.
    Adopt(Kind::kValue);
    tags_.push_back(t);
    values_.push_back(v);
  }
}

void ColumnVector::AppendFrom(const ColumnVector& src, size_t i) {
  AdmTag t = src.tags_[i];
  if (t == AdmTag::kMissing || t == AdmTag::kNull) {
    AppendValueless(t);
    return;
  }
  switch (src.kind_) {
    case Kind::kInt64:
      AppendInt64(t, src.ints_[i]);
      return;
    case Kind::kDouble:
      AppendDouble(t, src.doubles_[i]);
      return;
    case Kind::kString:
      AppendString(t, src.StringAt(i));
      return;
    case Kind::kList: {
      ColumnVector* items = BeginList(t);
      for (size_t j = src.ListBegin(i); j < src.ListEnd(i); ++j) {
        items->AppendFrom(*src.items_, j);
      }
      EndList();
      return;
    }
    default:
      AppendValue(src.values_[i]);
      return;
  }
}

std::string_view ColumnVector::StringAt(size_t i) const {
  uint32_t begin = i == 0 ? 0 : ends_[i - 1];
  return std::string_view(arena_).substr(begin, ends_[i] - begin);
}

AdmValue ColumnVector::ValueAt(size_t i) const {
  AdmTag t = tags_[i];
  if (t == AdmTag::kMissing) return AdmValue::Missing();
  if (t == AdmTag::kNull) return AdmValue::Null();
  switch (kind_) {
    case Kind::kInt64:
      return IntTagValue(t, ints_[i]);
    case Kind::kDouble:
      return t == AdmTag::kFloat ? AdmValue::Float(static_cast<float>(doubles_[i]))
                                 : AdmValue::Double(doubles_[i]);
    case Kind::kString:
      return StringTagValue(t, StringAt(i));
    case Kind::kList: {
      AdmValue list(t);
      list.Reserve(ListEnd(i) - ListBegin(i));
      for (size_t j = ListBegin(i); j < ListEnd(i); ++j) {
        list.Append(items_->ValueAt(j));
      }
      return list;
    }
    case Kind::kValue:
      return values_[i];
    case Kind::kNone:
      break;
  }
  TC_CHECK(false);
  return AdmValue::Missing();
}

AdmValue ColumnVector::TakeValueAt(size_t i) {
  if (kind_ == Kind::kValue) return std::move(values_[i]);
  return ValueAt(i);
}

size_t ColumnVector::ByteSize() const {
  size_t bytes = tags_.size() * sizeof(AdmTag) + ints_.size() * sizeof(int64_t) +
                 doubles_.size() * sizeof(double) +
                 ends_.size() * sizeof(uint32_t) + arena_.size() +
                 list_ends_.size() * sizeof(uint32_t);
  if (items_ != nullptr) bytes += items_->ByteSize();
  for (const AdmValue& v : values_) bytes += EstimateAdmValueBytes(v);
  return bytes;
}

void ColumnBatch::Reset(size_t num_cols) {
  cols.resize(num_cols);
  for (ColumnVector& c : cols) c.Clear();
  sel.clear();
  sel_active = false;
  rows = 0;
  records.clear();
  partition = -1;
}

size_t ColumnBatch::ByteSize() const {
  size_t bytes = sel.size() * sizeof(uint32_t);
  for (const ColumnVector& c : cols) bytes += c.ByteSize();
  for (const auto& r : records) {
    if (r != nullptr) bytes += r->size();
  }
  return bytes;
}

size_t EstimateAdmValueBytes(const AdmValue& v) {
  size_t bytes = sizeof(AdmValue);
  if (v.is_scalar()) return bytes + (IsVariableLengthScalar(v.tag())
                                         ? v.string_value().size()
                                         : 0);
  if (v.is_object()) {
    for (size_t i = 0; i < v.field_count(); ++i) {
      bytes += v.field_name(i).size() + EstimateAdmValueBytes(v.field_value(i));
    }
    return bytes;
  }
  if (v.is_collection()) {
    for (size_t i = 0; i < v.size(); ++i) bytes += EstimateAdmValueBytes(v.item(i));
  }
  return bytes;
}

}  // namespace tc
