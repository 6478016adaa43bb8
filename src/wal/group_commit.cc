#include "wal/group_commit.h"

#include "obs/trace.h"

namespace laxml {

Status GroupCommit::WaitDurable(uint64_t lsn) {
  if (lsn == 0) return Status::OK();
  LAXML_TRACE_SPAN("group_commit_wait");
  bool led = false;  // whether this committer issued an fsync itself
  // Raw Lock/Unlock (not a scope): the leader drops the latch around
  // its fdatasync so followers can queue behind it — the thread safety
  // analysis proves every path out of the loop releases exactly once.
  mu_.Lock();
  while (true) {
    if (!sticky_error_.ok()) {
      Status st = sticky_error_;
      mu_.Unlock();
      return st;
    }
    if (wal_->durable_lsn() >= lsn) {
      ++stats_.commits;
      if (!led) {
        // Someone else's fsync covered us: a free commit.
        ++stats_.piggybacked;
      }
      mu_.Unlock();
      return Status::OK();
    }
    if (leader_active_) {
      // A leader is mid-fsync; queue up behind it. Its sync may not
      // cover our LSN (it snapshotted before we appended) — re-check
      // on wake, possibly becoming the next leader.
      cv_.Wait(mu_);
      continue;
    }

    // Leader: one fdatasync for this record and every follower appended
    // behind it. The batch size is how far the durable point moves.
    leader_active_ = true;
    led = true;
    const uint64_t durable_before = wal_->durable_lsn();
    mu_.Unlock();
    Status st = wal_->Sync();
    mu_.Lock();
    leader_active_ = false;
    if (!st.ok()) {
      sticky_error_ = st;
      cv_.NotifyAll();
      mu_.Unlock();
      return st;
    }
    ++stats_.syncs;
    const uint64_t batch = wal_->durable_lsn() - durable_before;
    stats_.records_synced += batch;
    stats_.batch.Record(batch);
    cv_.NotifyAll();
    // Loop re-checks the durable point; the snapshot inside Sync() ran
    // after our append, so it covers our LSN and the next pass returns.
  }
}

}  // namespace laxml
