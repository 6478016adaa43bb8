#include "wal/wal.h"

#include "obs/request_context.h"
#include "obs/trace.h"

namespace laxml {

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path) {
  LAXML_ASSIGN_OR_RETURN(std::unique_ptr<PosixWalFile> file,
                         PosixWalFile::Open(path));
  return Open(std::unique_ptr<WalFile>(std::move(file)));
}

Result<std::unique_ptr<Wal>> Wal::Open(std::unique_ptr<WalFile> file) {
  return std::unique_ptr<Wal>(new Wal(std::move(file)));
}

Wal::~Wal() = default;

Status Wal::Append(const WalRecord& record, bool sync) {
  std::vector<uint8_t> framed;
  EncodeWalRecord(record, &framed);
  LAXML_RETURN_IF_ERROR(file_->Append(Slice(framed.data(), framed.size())));
  ++stats_.records_appended;
  stats_.bytes_appended += framed.size();
  appended_lsn_.fetch_add(1, std::memory_order_acq_rel);
  LAXML_RC_ADD(wal_bytes, framed.size());
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
  LAXML_RETURN_IF_ERROR(file_->Sync());
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
  LAXML_ASSIGN_OR_RETURN(std::vector<uint8_t> buf, file_->ReadAll());
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

Status Wal::TrimTornTail() {
  LAXML_ASSIGN_OR_RETURN(std::vector<uint8_t> buf, file_->ReadAll());
  if (buf.empty()) return Status::OK();
  const uint8_t* p = buf.data();
  const uint8_t* limit = p + buf.size();
  while (p < limit) {
    const uint8_t* record_start = p;
    WalRecord rec;
    if (!DecodeWalRecord(&p, limit, &rec).ok()) {
      p = record_start;
      break;
    }
  }
  if (p == limit) return Status::OK();  // chain verifies to the end
  return file_->Truncate(static_cast<uint64_t>(p - buf.data()));
}

Status Wal::Truncate() {
  LAXML_RETURN_IF_ERROR(file_->Truncate(0));
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

Result<uint64_t> Wal::SizeBytes() const { return file_->Size(); }

}  // namespace laxml
