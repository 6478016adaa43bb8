#include "audit/wal_audit.h"

#include <cstdio>
#include <vector>

#include "wal/log_format.h"

namespace laxml {

void AuditWalFile(const std::string& path, AuditReport* report) {
  std::FILE* f = std::fopen(path.c_str(), "rbe");  // e: O_CLOEXEC
  if (f == nullptr) return;  // no log, nothing to audit
  std::vector<uint8_t> bytes;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    AuditIssue issue;
    issue.layer = AuditLayer::kWal;
    issue.message = "log file unreadable: " + path;
    report->issues.push_back(issue);
    return;
  }

  const uint8_t* p = bytes.data();
  const uint8_t* limit = p + bytes.size();
  while (p < limit) {
    const uint8_t* record_start = p;
    WalRecord record;
    Status st = DecodeWalRecord(&p, limit, &record);
    if (st.ok()) {
      ++report->wal_records;
      continue;
    }
    if (st.IsNotFound()) {
      // CRC/length framing stopped verifying. The zero run at the end of
      // the file is the pre-zeroed file's padding past the logical end.
      // The bytes before it are exactly what Wal::TrimTornTail discards
      // on the next open: a crash mid-append (or mid-overwrite) is
      // *expected* to leave such a tail, so it is a coverage note, not
      // corruption. Only records that frame correctly but fail semantic
      // checks (the non-NotFound branch below) indicate real damage.
      const uint8_t* zeros = limit;
      while (zeros > record_start && zeros[-1] == 0) --zeros;
      report->wal_torn_tail_bytes =
          static_cast<uint64_t>(zeros - record_start);
      report->wal_padding_bytes = static_cast<uint64_t>(limit - zeros);
      return;
    }
    AuditIssue issue;
    issue.layer = AuditLayer::kWal;
    issue.offset = static_cast<uint64_t>(record_start - bytes.data());
    issue.has_offset = true;
    issue.message = "undecodable record: " + st.ToString();
    report->issues.push_back(issue);
    return;  // nothing after this point is trustworthy
  }
}

}  // namespace laxml
