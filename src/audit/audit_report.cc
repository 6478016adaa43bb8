#include "audit/audit_report.h"

#include <cstdio>

namespace laxml {
namespace {

// Minimal JSON string escaper: quotes, backslashes, and control bytes.
// Issue messages are ASCII by construction, so this is sufficient.
std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 2);
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const char* AuditLayerName(AuditLayer layer) {
  switch (layer) {
    case AuditLayer::kMeta:
      return "meta";
    case AuditLayer::kPage:
      return "page";
    case AuditLayer::kFreeChain:
      return "free-chain";
    case AuditLayer::kSlottedPage:
      return "slotted-page";
    case AuditLayer::kOverflow:
      return "overflow";
    case AuditLayer::kBTree:
      return "btree";
    case AuditLayer::kRangeChain:
      return "range-chain";
    case AuditLayer::kRangeIndex:
      return "range-index";
    case AuditLayer::kPartialIndex:
      return "partial-index";
    case AuditLayer::kStructuralIndex:
      return "structural-index";
    case AuditLayer::kFullIndex:
      return "full-index";
    case AuditLayer::kWal:
      return "wal";
    case AuditLayer::kBufferPool:
      return "buffer-pool";
    case AuditLayer::kDictionary:
      return "dictionary";
  }
  return "?";
}

std::string AuditIssue::ToString() const {
  std::string out = std::string("[") + AuditLayerName(layer) + "] " + message;
  std::string where;
  auto append = [&where](const std::string& part) {
    if (!where.empty()) where += ", ";
    where += part;
  };
  if (page != kInvalidPageId) append("page " + std::to_string(page));
  if (slot >= 0) append("slot " + std::to_string(slot));
  if (range != kInvalidRangeId) append("range " + std::to_string(range));
  if (node != kInvalidNodeId) append("node " + std::to_string(node));
  if (has_offset) append("offset " + std::to_string(offset));
  if (!where.empty()) out += " (" + where + ")";
  return out;
}

std::string AuditIssue::ToJson() const {
  std::string out = "{\"layer\":\"";
  out += AuditLayerName(layer);
  out += "\",\"message\":\"" + JsonEscape(message) + "\"";
  if (page != kInvalidPageId) out += ",\"page\":" + std::to_string(page);
  if (slot >= 0) out += ",\"slot\":" + std::to_string(slot);
  if (range != kInvalidRangeId) out += ",\"range\":" + std::to_string(range);
  if (node != kInvalidNodeId) out += ",\"node\":" + std::to_string(node);
  if (has_offset) out += ",\"offset\":" + std::to_string(offset);
  out += "}";
  return out;
}

std::string AuditReport::Summary(size_t max_lines) const {
  std::string out;
  size_t n = issues.size() < max_lines ? issues.size() : max_lines;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) out += "; ";
    out += issues[i].ToString();
  }
  if (issues.size() > n) {
    out += "; ... " + std::to_string(issues.size() - n) + " more";
  }
  return out;
}

std::string AuditReport::ToString() const {
  std::string out;
  for (const AuditIssue& issue : issues) {
    out += issue.ToString();
    out += "\n";
  }
  if (truncated) out += "(issue list truncated)\n";
  out += "scanned: " + std::to_string(ranges_walked) + " ranges, " +
         std::to_string(tokens_scanned) + " tokens, " +
         std::to_string(heap_pages) + " heap pages, " +
         std::to_string(overflow_pages) + " overflow pages, " +
         std::to_string(btree_nodes) + " btree nodes, " +
         std::to_string(partial_entries) + " partial-index entries, " +
         std::to_string(structural_entries) + " structural-index entries, " +
         std::to_string(full_entries) + " full-index entries, " +
         std::to_string(wal_records) + " wal records, " +
         std::to_string(wal_padding_bytes) + " wal padding bytes, " +
         std::to_string(pages_swept) + " pages swept\n";
  out += "dictionary: " + std::to_string(dict_symbols) + " symbol(s), " +
         std::to_string(dict_symbols_used) + " referenced, " +
         std::to_string(dict_garbage_symbols) + " garbage\n";
  if (wal_torn_tail_bytes > 0) {
    out += "note: " + std::to_string(wal_torn_tail_bytes) +
           " torn byte(s) at the log tail (recovery will trim them)\n";
  }
  return out;
}

std::string AuditReport::ToJson() const {
  std::string out = "{\"issues\":[";
  for (size_t i = 0; i < issues.size(); ++i) {
    if (i > 0) out += ",";
    out += issues[i].ToJson();
  }
  out += "],\"truncated\":";
  out += truncated ? "true" : "false";
  out += ",\"counters\":{";
  out += "\"ranges_walked\":" + std::to_string(ranges_walked);
  out += ",\"tokens_scanned\":" + std::to_string(tokens_scanned);
  out += ",\"heap_pages\":" + std::to_string(heap_pages);
  out += ",\"overflow_pages\":" + std::to_string(overflow_pages);
  out += ",\"btree_nodes\":" + std::to_string(btree_nodes);
  out += ",\"partial_entries\":" + std::to_string(partial_entries);
  out += ",\"structural_entries\":" + std::to_string(structural_entries);
  out += ",\"full_entries\":" + std::to_string(full_entries);
  out += ",\"wal_records\":" + std::to_string(wal_records);
  out += ",\"pages_swept\":" + std::to_string(pages_swept);
  out += ",\"wal_torn_tail_bytes\":" + std::to_string(wal_torn_tail_bytes);
  out += ",\"wal_padding_bytes\":" + std::to_string(wal_padding_bytes);
  out += "},\"dictionary\":{";
  out += "\"symbols\":" + std::to_string(dict_symbols);
  out += ",\"symbols_used\":" + std::to_string(dict_symbols_used);
  out += ",\"garbage_symbols\":" + std::to_string(dict_garbage_symbols);
  out += "}}";
  return out;
}

}  // namespace laxml
