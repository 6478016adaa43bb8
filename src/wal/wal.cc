#include "wal/wal.h"

#include "obs/request_context.h"
#include "obs/trace.h"

namespace laxml {

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path) {
  LAXML_ASSIGN_OR_RETURN(std::unique_ptr<File> file, PosixFile::Open(path));
  return Open(std::move(file));
}

Result<std::unique_ptr<Wal>> Wal::Open(std::unique_ptr<File> file) {
  auto wal = std::unique_ptr<Wal>(new Wal(std::move(file)));
  wal->end_known_ = wal->file_.Size() == 0;
  return wal;
}

Wal::~Wal() = default;

Status Wal::Append(const WalRecord& record, bool sync) {
  if (!end_known_) {
    // A reopened file may be a crashed one: zero padding, or a torn
    // tail, behind its last record. Appending at its physical end would
    // put the record where replay never reaches.
    return Status::InvalidArgument(
        "wal append before TrimTornTail or Truncate on a reopened log");
  }
  encode_buf_.clear();
  EncodeWalRecord(record, &encode_buf_);
  LAXML_RETURN_IF_ERROR(file_.Append(Slice(encode_buf_)));
  ++stats_.records_appended;
  stats_.bytes_appended += encode_buf_.size();
  appended_lsn_.fetch_add(1, std::memory_order_acq_rel);
  LAXML_RC_ADD(wal_bytes, encode_buf_.size());
  if (sync) {
    return this->Sync();
  }
  return Status::OK();
}

Status Wal::Sync() {
  // Snapshot before the fdatasync: every record appended before this
  // point is covered by the sync; records racing in behind the snapshot
  // simply wait for the next one.
  const uint64_t target = appended_lsn_.load(std::memory_order_acquire);
  LAXML_TRACE_SPAN("wal_fsync");
  const uint64_t start_us = obs::NowMicros();
  LAXML_RETURN_IF_ERROR(file_.Sync());
  stats_.fsync_us.Record(obs::NowMicros() - start_us);
  // Monotone advance: a concurrent Sync may already have published a
  // higher durable point.
  uint64_t cur = durable_lsn_.load(std::memory_order_acquire);
  while (cur < target && !durable_lsn_.compare_exchange_weak(
                             cur, target, std::memory_order_acq_rel)) {
  }
  ++stats_.syncs;
  return Status::OK();
}

Result<std::vector<WalRecord>> Wal::ReadAll() const {
  LAXML_ASSIGN_OR_RETURN(std::vector<uint8_t> buf, file_.ReadAll());
  std::vector<WalRecord> records;
  const uint8_t* p = buf.data();
  const uint8_t* limit = p + buf.size();
  while (p < limit) {
    WalRecord rec;
    Status st = DecodeWalRecord(&p, limit, &rec);
    if (st.IsNotFound()) break;  // clean end or torn tail
    if (!st.ok()) return st;
    records.push_back(std::move(rec));
  }
  return records;
}

Result<std::vector<WalRecord>> Wal::TrimTornTail() {
  LAXML_ASSIGN_OR_RETURN(std::vector<uint8_t> buf, file_.ReadAll());
  std::vector<WalRecord> records;
  const uint8_t* p = buf.data();
  const uint8_t* limit = p + buf.size();
  while (p < limit) {
    const uint8_t* record_start = p;
    WalRecord rec;
    if (!DecodeWalRecord(&p, limit, &rec).ok()) {
      p = record_start;
      break;
    }
    records.push_back(std::move(rec));
  }
  if (p != limit) {
    // Zeroes the torn bytes and any padding past them (a no-op write
    // when they already read as zero), so the next append cannot revive
    // them.
    LAXML_RETURN_IF_ERROR(
        file_.Truncate(static_cast<uint64_t>(p - buf.data())));
  }
  end_known_ = true;
  return records;
}

Status Wal::Truncate() {
  // Zero plus sync, not a file-size change: the next commit's fdatasync
  // then flushes only its record.
  LAXML_RETURN_IF_ERROR(file_.Truncate(0));
  end_known_ = true;
  ++stats_.truncations;
  // A checkpoint persisted every logged effect through its own page
  // flush + file sync, so everything appended so far is durable even
  // though the log bytes are gone. LSNs stay monotone across
  // truncations so a committer already waiting on a pre-checkpoint LSN
  // wakes instead of waiting for a sequence that restarted at zero.
  durable_lsn_.store(appended_lsn_.load(std::memory_order_acquire),
                     std::memory_order_release);
  return Status::OK();
}

Result<uint64_t> Wal::SizeBytes() const { return file_.Size(); }

Status Wal::ShrinkToFit() { return file_.ShrinkToFit(); }

}  // namespace laxml
