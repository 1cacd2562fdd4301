#include "lsm/wal.h"

#include "common/crc32.h"

namespace tc {
namespace {

// Record layout: u32 body_len | u32 crc(body) | body.
// Body: u64 lsn | u8 op | 16B key | payload bytes.
constexpr size_t kBodyFixed = 8 + 1 + 16;

// Appends one framed record to `buf` (the shared encoder behind both Append
// and AppendBatch).
void EncodeWalRecord(Buffer* buf, uint64_t lsn, const WalAppendOp& op) {
  PutFixed32(buf, static_cast<uint32_t>(kBodyFixed + op.payload.size()));
  PutFixed32(buf, 0);  // crc patched below
  size_t body_start = buf->size();
  PutFixed64(buf, lsn);
  PutU8(buf, static_cast<uint8_t>(op.op));
  PutFixed64(buf, static_cast<uint64_t>(op.key.a));
  PutFixed64(buf, static_cast<uint64_t>(op.key.b));
  PutString(buf, op.payload);
  OverwriteFixed32(buf, body_start - 4,
                   Crc32c(buf->data() + body_start, buf->size() - body_start));
}

}  // namespace

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    std::shared_ptr<FileSystem> fs, const std::string& path, size_t sync_every_n) {
  auto wal = std::unique_ptr<WriteAheadLog>(new WriteAheadLog());
  wal->fs_ = fs;
  wal->path_ = path;
  wal->sync_every_n_ = sync_every_n;
  if (fs->Exists(path)) {
    TC_ASSIGN_OR_RETURN(wal->file_, fs->Open(path));
    // Scan to find the durable end and the next LSN.
    uint64_t max_lsn = 0;
    uint64_t end = 0;
    Status st = wal->Replay([&](const WalRecord& r) {
      max_lsn = r.lsn;
      end += 8 + kBodyFixed + r.payload.size();
      return Status::OK();
    });
    if (!st.ok()) return st;
    wal->next_lsn_ = max_lsn + 1;
    wal->write_offset_ = end;
  } else {
    TC_ASSIGN_OR_RETURN(wal->file_, fs->Create(path));
  }
  return wal;
}

Result<uint64_t> WriteAheadLog::Append(WalOp op, const BtreeKey& key,
                                       std::string_view payload) {
  WalAppendOp one{op, key, payload};
  uint64_t lsn = 0;
  TC_RETURN_IF_ERROR(AppendBatch(SingletonSpan<const WalAppendOp>(one), &lsn));
  return lsn;
}

Status WriteAheadLog::AppendBatch(Span<const WalAppendOp> ops,
                                  uint64_t* first_lsn) {
  if (first_lsn != nullptr) *first_lsn = next_lsn_;
  if (ops.empty()) return Status::OK();
  size_t total = 0;
  for (const WalAppendOp& op : ops) total += 8 + kBodyFixed + op.payload.size();
  encode_buf_.clear();
  encode_buf_.reserve(total);
  for (const WalAppendOp& op : ops) {
    EncodeWalRecord(&encode_buf_, next_lsn_++, op);
  }
  // One buffered write for the whole group. A torn write inside it truncates
  // replay at the first broken record, so recovery sees a prefix of the
  // group — exactly the single-record torn-tail semantics.
  TC_RETURN_IF_ERROR(
      file_->Write(write_offset_, encode_buf_.data(), encode_buf_.size()));
  write_offset_ += encode_buf_.size();
  if (sync_every_n_ > 0) {
    appends_since_sync_ += ops.size();
    if (appends_since_sync_ >= sync_every_n_) {
      TC_RETURN_IF_ERROR(file_->Sync());
      appends_since_sync_ = 0;
    }
  }
  return Status::OK();
}

Status WriteAheadLog::Replay(
    const std::function<Status(const WalRecord&)>& fn) const {
  uint64_t size = file_->Size();
  uint64_t pos = 0;
  Buffer header(8);
  while (pos + 8 <= size) {
    TC_RETURN_IF_ERROR(file_->Read(pos, 8, header.data()));
    uint32_t body_len = GetFixed32(header.data());
    uint32_t crc = GetFixed32(header.data() + 4);
    if (body_len < kBodyFixed || pos + 8 + body_len > size) break;  // torn tail
    Buffer body(body_len);
    TC_RETURN_IF_ERROR(file_->Read(pos + 8, body_len, body.data()));
    if (Crc32c(body.data(), body.size()) != crc) break;  // torn tail
    if (body[8] != static_cast<uint8_t>(WalOp::kPut) &&
        body[8] != static_cast<uint8_t>(WalOp::kDelete)) {
      return Status::Corruption(path_ + ": unknown WAL op " +
                                std::to_string(body[8]) + " at offset " +
                                std::to_string(pos));
    }
    WalRecord r;
    r.lsn = GetFixed64(body.data());
    r.op = static_cast<WalOp>(body[8]);
    r.key.a = static_cast<int64_t>(GetFixed64(body.data() + 9));
    r.key.b = static_cast<int64_t>(GetFixed64(body.data() + 17));
    r.payload.assign(body.begin() + kBodyFixed, body.end());
    TC_RETURN_IF_ERROR(fn(r));
    pos += 8 + body_len;
  }
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  if (sync_every_n_ == 0) return Status::OK();  // caller opted out of fsync
  appends_since_sync_ = 0;
  return file_->Sync();
}

}  // namespace tc
