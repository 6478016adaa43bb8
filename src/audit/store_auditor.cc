#include "audit/store_auditor.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "audit/wal_audit.h"
#include "btree/btree.h"
#include "storage/pager.h"
#include "storage/record_store.h"
#include "storage/slotted_page.h"
#include "index/structural_index.h"
#include "store/cursor.h"
#include "store/range_manager.h"
#include "wal/wal.h"
#include "xml/token_codec.h"

namespace laxml {

AuditReport StoreAuditor::Run(const AuditOptions& options) {
  options_ = options;
  report_ = AuditReport{};
  owners_.clear();
  heap_pages_.clear();
  used_symbols_.clear();
  range_walk_intact_ = false;

  // Pin accounting first: a leaked pin means some earlier operation
  // aborted mid-flight, which taints everything the other legs read.
  AuditBufferPool();
  // Trees and the heap walk claim their pages for the sweep.
  AuditBTrees();
  AuditHeapAndOverflow();
  AuditResidentLocations();
  AuditRangeLayer();
  // Needs the symbol references the range walk just collected.
  AuditDictionary();
  AuditPartialIndex();
  AuditStructuralIndex();
  AuditWal();
  // Reachability needs every structure's claims, so the sweep runs last.
  if (options_.check_pages) AuditPageSweep();

  if (report_.issues.size() > options_.max_issues) {
    report_.issues.resize(options_.max_issues);
    report_.truncated = true;
  }
  return std::move(report_);
}

bool StoreAuditor::Full() {
  if (report_.issues.size() < options_.max_issues) return false;
  report_.truncated = true;
  return true;
}

AuditIssue& StoreAuditor::Add(AuditLayer layer, std::string message) {
  AuditIssue issue;
  issue.layer = layer;
  issue.message = std::move(message);
  report_.issues.push_back(std::move(issue));
  return report_.issues.back();
}

void StoreAuditor::Claim(PageId page, const char* owner) {
  auto [it, inserted] = owners_.emplace(page, owner);
  if (!inserted && it->second != owner) {
    Add(AuditLayer::kPage, std::string("page claimed by both ") +
                               it->second + " and " + owner)
        .page = page;
  }
}

void StoreAuditor::AuditBufferPool() {
  size_t pinned = store_->pager_->pool()->pinned_frame_count();
  if (pinned > 0) {
    Add(AuditLayer::kBufferPool,
        std::to_string(pinned) + " frame(s) still pinned at quiesce");
  }
}

void StoreAuditor::AuditBTrees() {
  auto check = [this](const BTree& tree, const char* name) {
    std::vector<BTreeCheckIssue> tree_issues;
    std::vector<PageId> visited;
    Status st = tree.CheckStructure(&tree_issues, &visited);
    if (!st.ok()) {
      Add(AuditLayer::kBTree,
          std::string(name) + ": check aborted: " + st.ToString());
    }
    for (const BTreeCheckIssue& ti : tree_issues) {
      if (Full()) return;
      Add(AuditLayer::kBTree, std::string(name) + ": " + ti.what).page =
          ti.page;
    }
    report_.btree_nodes += visited.size();
    for (PageId p : visited) Claim(p, name);
  };
  check(store_->ranges_->meta_tree(), "range-meta-tree");
  if (store_->full_ != nullptr) check(store_->full_->tree(), "full-index");
}

void StoreAuditor::AuditRangeLayer() {
  const RangeManager& rm = *store_->ranges_;
  RangeId cur = rm.first_range();
  RangeId prev = kInvalidRangeId;
  uint64_t chain_ranges = 0;
  uint64_t live_nodes = 0;
  // Sums of the chain's metadata, against the manager's running totals
  // (a full scan sizes its output from total_tokens()).
  uint64_t meta_tokens = 0;
  uint64_t meta_bytes = 0;
  int64_t depth = 0;
  bool chain_complete = true;
  bool all_payloads_intact = true;
  // Interval starts seen on the chain, to detect range-index orphans.
  std::unordered_set<NodeId> chain_starts;
  std::unordered_set<RangeId> seen;

  while (cur != kInvalidRangeId) {
    if (Full()) return;
    if (!seen.insert(cur).second) {
      Add(AuditLayer::kRangeChain, "range chain cycles back").range = cur;
      chain_complete = false;
      break;
    }
    auto meta_r = rm.GetMeta(cur);
    if (!meta_r.ok()) {
      Add(AuditLayer::kRangeChain,
          "range metadata unreadable: " + meta_r.status().ToString())
          .range = cur;
      chain_complete = false;
      break;  // cannot follow next without the meta
    }
    const RangeMeta meta = *meta_r;
    ++chain_ranges;
    meta_tokens += meta.token_count;
    meta_bytes += meta.byte_len;
    if (meta.prev != prev) {
      Add(AuditLayer::kRangeChain,
          "chain prev pointer is " + std::to_string(meta.prev) +
              ", expected " + std::to_string(prev))
          .range = cur;
    }

    auto payload_r = rm.ReadPayload(cur);
    if (!payload_r.ok()) {
      Add(AuditLayer::kRangeChain,
          "range payload unreadable: " + payload_r.status().ToString())
          .range = cur;
      all_payloads_intact = false;
      prev = cur;
      cur = meta.next;
      continue;
    }
    const std::vector<uint8_t>& payload = *payload_r;
    if (payload.size() != meta.byte_len) {
      Add(AuditLayer::kRangeChain,
          "payload is " + std::to_string(payload.size()) +
              " byte(s), meta.byte_len says " + std::to_string(meta.byte_len))
          .range = cur;
    }

    // One token walk checks nesting, counters, and (in full-index mode)
    // every node's eager index entry. The reader carries the store's
    // dictionary, so a payload referencing a symbol the dictionary does
    // not hold fails right here as "token stream undecodable".
    TokenReader reader{Slice(payload), rm.dictionary()};
    uint64_t begins = 0;
    uint32_t tokens = 0;
    bool payload_intact = true;
    TokenType type;
    while (!reader.AtEnd()) {
      size_t offset = reader.offset();
      Status st = reader.Skip(&type);
      if (st.ok() && reader.last_name_symbol() != kNoNameSymbol) {
        used_symbols_.insert(reader.last_name_symbol());
      }
      if (!st.ok()) {
        AuditIssue& issue = Add(
            AuditLayer::kRangeChain,
            "token stream undecodable: " + st.ToString());
        issue.range = cur;
        issue.offset = offset;
        issue.has_offset = true;
        payload_intact = false;
        all_payloads_intact = false;
        break;
      }
      if (TokenBeginsNode(type)) {
        if (store_->full_ != nullptr && meta.has_ids() &&
            begins < meta.id_count) {
          NodeId id = meta.start_id + begins;
          TokenLocation want;
          want.range_id = cur;
          want.byte_offset = static_cast<uint32_t>(offset);
          want.token_index = tokens;
          auto got = store_->full_->Get(id);
          if (!got.ok()) {
            AuditIssue& issue =
                Add(AuditLayer::kFullIndex, "node has no full-index entry");
            issue.range = cur;
            issue.node = id;
          } else if (!(*got == want)) {
            AuditIssue& issue = Add(
                AuditLayer::kFullIndex,
                "full-index entry points at range " +
                    std::to_string(got->range_id) + " offset " +
                    std::to_string(got->byte_offset) + ", token is at offset " +
                    std::to_string(offset));
            issue.range = cur;
            issue.node = id;
          }
        }
        ++begins;
      }
      if (TokenOpensScope(type)) ++depth;
      if (TokenClosesScope(type)) --depth;
      if (depth < 0) {
        AuditIssue& issue = Add(AuditLayer::kRangeChain,
                                "document-order nesting went negative");
        issue.range = cur;
        issue.offset = offset;
        issue.has_offset = true;
        depth = 0;  // keep scanning; one issue per underflow point
      }
      ++tokens;
    }
    report_.tokens_scanned += tokens;

    if (payload_intact) {
      if (begins != meta.id_count || tokens != meta.token_count) {
        Add(AuditLayer::kRangeChain,
            "meta says " + std::to_string(meta.id_count) + " id(s) / " +
                std::to_string(meta.token_count) + " token(s), payload has " +
                std::to_string(begins) + " / " + std::to_string(tokens))
            .range = cur;
      }
      int32_t want_delta = 0, want_min = 0;
      Status st = ComputeDepthProfile(payload.data(), payload.size(),
                                      rm.dictionary(), &want_delta,
                                      &want_min);
      if (st.ok() &&
          (want_delta != meta.depth_delta || want_min != meta.min_depth)) {
        Add(AuditLayer::kRangeChain,
            "depth profile stale: meta (" + std::to_string(meta.depth_delta) +
                ", " + std::to_string(meta.min_depth) + "), payload (" +
                std::to_string(want_delta) + ", " + std::to_string(want_min) +
                ")")
            .range = cur;
      }
    }

    if (meta.has_ids()) {
      chain_starts.insert(meta.start_id);
      if (meta.end_id() >= store_->next_node_id_) {
        AuditIssue& issue =
            Add(AuditLayer::kMeta,
                "range ids reach " + std::to_string(meta.end_id()) +
                    ", past the id allocator at " +
                    std::to_string(store_->next_node_id_));
        issue.range = cur;
        issue.node = meta.end_id();
      }
      auto looked = rm.index().LookupEntry(meta.start_id);
      if (!looked.ok() || looked->range_id != cur ||
          looked->start_id != meta.start_id ||
          looked->end_id != meta.end_id()) {
        AuditIssue& issue = Add(
            AuditLayer::kRangeIndex,
            looked.ok()
                ? "interval [" + std::to_string(looked->start_id) + ", " +
                      std::to_string(looked->end_id) + "] -> range " +
                      std::to_string(looked->range_id) +
                      " disagrees with range meta [" +
                      std::to_string(meta.start_id) + ", " +
                      std::to_string(meta.end_id()) + "]"
                : "no interval covers the range's ids");
        issue.range = cur;
        issue.node = meta.start_id;
      }
    }
    live_nodes += begins;
    prev = cur;
    cur = meta.next;
    if (chain_ranges > rm.range_count() + 1) {
      Add(AuditLayer::kRangeChain,
          "chain is longer than range_count (" +
              std::to_string(rm.range_count()) + "); cycle or stale counter");
      chain_complete = false;
      break;
    }
  }
  report_.ranges_walked = chain_ranges;
  range_walk_intact_ = chain_complete && all_payloads_intact;

  if (chain_complete) {
    if (depth != 0) {
      Add(AuditLayer::kRangeChain,
          "store content nests to depth " + std::to_string(depth) +
              " at end of chain, expected 0");
    }
    if (prev != rm.last_range()) {
      Add(AuditLayer::kRangeChain,
          "last_range points at " + std::to_string(rm.last_range()) +
              ", chain ends at " + std::to_string(prev));
    }
    if (chain_ranges != rm.range_count()) {
      Add(AuditLayer::kRangeChain,
          "chain has " + std::to_string(chain_ranges) +
              " range(s), range_count says " +
              std::to_string(rm.range_count()));
    }
    if (meta_tokens != rm.total_tokens() ||
        meta_bytes != rm.total_payload_bytes()) {
      Add(AuditLayer::kRangeChain,
          "range metadata sums to " + std::to_string(meta_tokens) +
              " token(s) / " + std::to_string(meta_bytes) +
              " byte(s), running totals say " +
              std::to_string(rm.total_tokens()) + " / " +
              std::to_string(rm.total_payload_bytes()));
    }
    if (live_nodes != store_->live_node_count()) {
      Add(AuditLayer::kMeta,
          "payloads hold " + std::to_string(live_nodes) +
              " node(s), stats say " +
              std::to_string(store_->live_node_count()));
    }
    if (store_->full_ != nullptr) {
      report_.full_entries = store_->full_->size();
      if (store_->full_->size() != live_nodes) {
        Add(AuditLayer::kFullIndex,
            "index holds " + std::to_string(store_->full_->size()) +
                " entries for " + std::to_string(live_nodes) +
                " live node(s)");
      }
    }
  }

  // The index side of the tiling: every interval must belong to a chain
  // range (no orphans) and intervals must not touch or invert. The
  // std::map guarantees start-id order, so one adjacent-pair pass works.
  bool have_prev_interval = false;
  NodeId prev_end = 0;
  rm.index().ForEach([&](const RangeIndex::Entry& e) {
    if (Full()) return;
    if (chain_complete && chain_starts.find(e.start_id) == chain_starts.end()) {
      AuditIssue& issue = Add(AuditLayer::kRangeIndex,
                              "interval belongs to no range on the chain");
      issue.range = e.range_id;
      issue.node = e.start_id;
    }
    if (e.end_id < e.start_id) {
      AuditIssue& issue =
          Add(AuditLayer::kRangeIndex,
              "inverted interval [" + std::to_string(e.start_id) + ", " +
                  std::to_string(e.end_id) + "]");
      issue.range = e.range_id;
      issue.node = e.start_id;
    }
    if (have_prev_interval && e.start_id <= prev_end) {
      AuditIssue& issue = Add(
          AuditLayer::kRangeIndex,
          "interval overlaps its predecessor (which ends at " +
              std::to_string(prev_end) + ")");
      issue.range = e.range_id;
      issue.node = e.start_id;
    }
    prev_end = e.end_id;
    have_prev_interval = true;
  });
}

void StoreAuditor::AuditDictionary() {
  const NameDictionary* dict = store_->name_dictionary();
  report_.dict_symbols = dict->size();
  report_.dict_symbols_used = used_symbols_.size();

  // Dangling symbols (payload references id the dictionary lacks) were
  // already reported by the range walk — the dictionary-aware Skip
  // fails on them. This leg covers the opposite direction: the
  // dictionary's own consistency and symbols nothing references.
  for (uint32_t sym : used_symbols_) {
    if (Full()) return;
    if (dict->NameOf(sym) == nullptr) {
      // Defensive: Skip should have failed already; an entry here means
      // the walk and the dictionary disagree about the symbol space.
      Add(AuditLayer::kDictionary,
          "payload references symbol " + std::to_string(sym) +
              " beyond the dictionary (" + std::to_string(dict->size()) +
              " symbol(s))");
    }
  }
  // Every interned name must resolve back to its own id — the in-memory
  // maps were rebuilt from the persisted log, so a mismatch means the
  // meta blob round-trip is broken.
  for (uint32_t sym = 0; sym < dict->size(); ++sym) {
    if (Full()) return;
    const std::string* name = dict->NameOf(sym);
    if (name == nullptr) {
      Add(AuditLayer::kDictionary,
          "symbol " + std::to_string(sym) + " has no name");
      continue;
    }
    uint32_t back = dict->Find(*name);
    if (back != sym) {
      Add(AuditLayer::kDictionary,
          "name \"" + *name + "\" resolves to symbol " +
              std::to_string(back) + ", stored under " + std::to_string(sym));
    }
  }
  // Garbage symbols — interned once, referenced by no surviving payload
  // (deletes and inline fallbacks leave these behind). Counted, never an
  // issue: decode never touches them and the append-only log cannot
  // drop them without rewriting every range that uses a symbol.
  if (range_walk_intact_) {
    uint64_t garbage = 0;
    for (uint32_t sym = 0; sym < dict->size(); ++sym) {
      if (used_symbols_.find(sym) == used_symbols_.end()) ++garbage;
    }
    report_.dict_garbage_symbols = garbage;
  }
}

void StoreAuditor::AuditPartialIndex() {
  const PartialIndex& pi = store_->partial_;
  if (!pi.enabled() || pi.size() == 0) return;

  // Group memo halves by the range they point into so each range's
  // payload is read and token-walked once, no matter how many land in it.
  struct Memo {
    NodeId id;
    PartialEntry::Half half;
    TokenPos pos;
  };
  std::unordered_map<RangeId, std::vector<Memo>> memos_by_range;
  pi.ForEachEntry([&](NodeId id, const PartialEntry& e) {
    ++report_.partial_entries;
    if (e.begin) {
      memos_by_range[e.begin->range].push_back({id, PartialEntry::kBegin,
                                                *e.begin});
    }
    if (e.end) {
      memos_by_range[e.end->range].push_back({id, PartialEntry::kEnd, *e.end});
    }
  });

  for (const auto& [r, memos] : memos_by_range) {
    if (Full()) return;
    auto meta_r = store_->ranges_->GetMeta(r);
    auto payload_r =
        meta_r.ok() ? store_->ranges_->ReadPayload(r)
                    : Result<std::vector<uint8_t>>(meta_r.status());
    if (!meta_r.ok() || !payload_r.ok()) {
      // Every memo pointing into an unreadable/dead range is stale.
      for (const Memo& m : memos) {
        if (Full()) return;
        AuditIssue& issue = Add(
            AuditLayer::kPartialIndex,
            std::string(m.half == PartialEntry::kBegin ? "begin" : "end") +
                " memo points into an unreadable range");
        issue.range = r;
        issue.node = m.id;
      }
      continue;
    }
    const RangeMeta meta = *meta_r;

    // offset -> the token's position as a walk of the range finds it.
    struct TokenAt {
      TokenPos pos;
      TokenType type;
    };
    std::unordered_map<uint32_t, TokenAt> boundaries;
    TokenReader reader{Slice(*payload_r), store_->ranges_->dictionary()};
    TokenPos pos{r, 0, 0, 0};
    TokenType type;
    bool intact = true;
    while (!reader.AtEnd()) {
      pos.offset = static_cast<uint32_t>(reader.offset());
      if (!reader.Skip(&type).ok()) {
        intact = false;  // the range-layer leg reports the corruption
        break;
      }
      boundaries.emplace(pos.offset, TokenAt{pos, type});
      if (TokenBeginsNode(type)) ++pos.begins_before;
      ++pos.token_index;
    }
    if (!intact) continue;

    for (const Memo& m : memos) {
      if (Full()) return;
      const char* half = m.half == PartialEntry::kBegin ? "begin" : "end";
      auto fail = [&](const std::string& what) {
        AuditIssue& issue =
            Add(AuditLayer::kPartialIndex, half + (" memo " + what));
        issue.range = r;
        issue.node = m.id;
        issue.offset = m.pos.offset;
        issue.has_offset = true;
      };
      auto found = boundaries.find(m.pos.offset);
      if (found == boundaries.end()) {
        fail("offset is not a token boundary");
        continue;
      }
      const TokenAt& at = found->second;
      if (at.pos.token_index != m.pos.token_index) {
        fail("token index is " + std::to_string(m.pos.token_index) +
             ", token at that offset is #" +
             std::to_string(at.pos.token_index));
      }
      // Splits cut with it and cursors regenerate ids from it.
      if (at.pos.begins_before != m.pos.begins_before) {
        fail("begins_before is " + std::to_string(m.pos.begins_before) +
             ", actual " + std::to_string(at.pos.begins_before));
      }
      if (m.half == PartialEntry::kBegin) {
        const NodeId node = meta.start_id + at.pos.begins_before;
        if (!TokenBeginsNode(at.type)) {
          fail("points at a token that begins no node");
        } else if (!meta.has_ids()) {
          fail("points into an id-less range");
        } else if (node != m.id) {
          fail("points at the token of node " + std::to_string(node));
        }
      } else if (!TokenClosesScope(at.type) && !TokenBeginsNode(at.type)) {
        // A node's end token either closes its scope, or — for
        // single-token nodes (text, comments, PIs) — is its begin token.
        fail("points at a token that terminates no node");
      }
    }
  }
}

namespace {

/// The value key (see StructuralEntry) each element and attribute in a
/// document-order stream of whole tokens should carry. It re-derives
/// the keys from decoded strings with rules of its own, so a warmer bug
/// cannot hide behind the warmer's own logic.
class ValueKeyOracle {
 public:
  void OnToken(const Token& token, NodeId id) {
    if (token.BeginsNode() && !open_.empty()) {
      Open& parent = open_.back();
      if (token.type == TokenType::kBeginAttribute && parent.texts == 0) {
        ++parent.attributes;
      } else if (token.type == TokenType::kText) {
        ++parent.texts;
        parent.text_id = id;
        parent.text = token.value;
      } else {
        parent.other = true;
      }
    }
    if (token.type == TokenType::kBeginAttribute) {
      keys_[id] = StructuralValueKey(token.value);
    }
    if (token.OpensScope()) {
      Open scope;
      scope.element = token.type == TokenType::kBeginElement;
      scope.id = id;
      open_.push_back(std::move(scope));
    } else if (token.ClosesScope() && !open_.empty()) {
      const Open& scope = open_.back();
      if (scope.element) keys_[scope.id] = KeyOf(scope);
      open_.pop_back();
    }
  }

  /// The expected key of node `id`, or nullptr for a node that is no
  /// element or attribute.
  const uint64_t* Find(NodeId id) const {
    auto it = keys_.find(id);
    return it == keys_.end() ? nullptr : &it->second;
  }

 private:
  struct Open {
    bool element = false;
    NodeId id = kInvalidNodeId;
    uint32_t attributes = 0;
    uint32_t texts = 0;
    bool other = false;  ///< A child that is no attribute or text.
    NodeId text_id = kInvalidNodeId;
    std::string text;
  };

  static uint64_t KeyOf(const Open& e) {
    if (e.other || e.texts > 1) return kMixedValueKey;
    if (e.texts == 0) return StructuralValueKey("");
    return e.text_id == e.id + e.attributes + 1 ? StructuralValueKey(e.text)
                                                 : kMixedValueKey;
  }

  std::vector<Open> open_;
  std::unordered_map<NodeId, uint64_t> keys_;
};

std::string DescribeValueKey(uint64_t key) {
  char hex[19];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(key));
  const char* kind = key == kMixedValueKey ? "mixed"
                     : ExactValueKey(key)   ? "inline"
                                            : "hashed";
  return std::string(hex) + " (" + kind + ")";
}

}  // namespace

void StoreAuditor::AuditStructuralIndex() {
  const StructuralIndex* si = store_->structural_.get();
  if (si->memoized_nodes() == 0) return;

  // Re-derive every element's and attribute's (pre, post, level, range,
  // offset) tuple from the current token stream — the oracle the memos
  // must equal. Attribute postings sit under their "@name" keys, so a
  // posting filed under the wrong kind fails the tag check below. Value
  // keys are checked against ValueKeyOracle, not the warmer.
  StructuralWarmer oracle(store_->name_dictionary(), {}, /*track_all=*/true);
  ValueKeyOracle value_keys;
  auto cursor = store_->NewCursor();
  Status st = cursor->SeekToFirst();
  while (st.ok() && cursor->Valid()) {
    oracle.OnToken(*cursor);
    value_keys.OnToken(cursor->token(), cursor->node_id());
    st = cursor->Next();
  }
  if (!st.ok()) {
    Add(AuditLayer::kStructuralIndex,
        "stream scan failed: " + st.ToString());
    return;
  }
  if (!oracle.complete()) {
    // The nesting violation itself belongs to the range layer; here it
    // just means no interval oracle exists to compare against.
    Add(AuditLayer::kStructuralIndex,
        "token stream is not well-nested; intervals unverifiable");
    return;
  }

  struct Fresh {
    const std::string* tag;
    const StructuralEntry* entry;
    uint32_t path;  ///< Index into the oracle's label_steps().
  };
  std::unordered_map<NodeId, Fresh> fresh;
  for (const StructuralWarmer::TagEntries& tag : oracle.collected()) {
    for (size_t i = 0; i < tag.entries.size(); ++i) {
      fresh.emplace(tag.entries[i].id,
                    Fresh{&tag.tag, &tag.entries[i], tag.paths[i]});
    }
  }
  // Each label path the stream holds, spelled as LabelPath::ToString.
  std::vector<std::string> label_paths;
  for (const LabelStep& step : oracle.label_steps()) {
    label_paths.push_back(label_paths.empty()
                              ? std::string()
                              : label_paths[step.parent] +
                                    (step.attribute ? "/@" : "/") +
                                    step.name);
  }

  // Posting lists must be sorted by pre (the joins merge them).
  // ForEachEntry visits each tag's list in storage order, so a per-tag
  // running maximum catches any inversion.
  std::unordered_map<std::string, uint64_t> prev_pre;
  std::unordered_map<std::string, bool> tag_seen;
  si->ForEachEntry([&](const std::string& tag, const StructuralEntry& e) {
    if (Full()) return;
    ++report_.structural_entries;
    auto fail = [&](std::string what) -> AuditIssue& {
      AuditIssue& issue =
          Add(AuditLayer::kStructuralIndex, std::move(what));
      issue.node = e.id;
      issue.range = e.range;
      issue.offset = e.offset;
      issue.has_offset = true;
      return issue;
    };
    if (tag_seen[tag] && e.pre <= prev_pre[tag]) {
      fail("posting list for <" + tag + "> is not sorted by pre");
    }
    tag_seen[tag] = true;
    prev_pre[tag] = e.pre;

    auto it = fresh.find(e.id);
    if (it == fresh.end()) {
      fail("memoized interval for node that is no element or attribute "
           "in the stream");
      return;
    }
    if (*it->second.tag != tag) {
      fail("memoized under <" + tag + ">, stream says <" +
           *it->second.tag + ">");
      return;
    }
    const StructuralEntry& want = *it->second.entry;
    if (e.pre != want.pre || e.post != want.post) {
      fail("interval is (" + std::to_string(e.pre) + ", " +
           std::to_string(e.post) + "), stream says (" +
           std::to_string(want.pre) + ", " + std::to_string(want.post) +
           ")");
    }
    if (e.level != want.level) {
      fail("level is " + std::to_string(e.level) + ", stream says " +
           std::to_string(want.level));
    }
    if (e.parent_pre != want.parent_pre) {
      fail("parent pre is " + std::to_string(e.parent_pre) +
           ", stream says " + std::to_string(want.parent_pre));
    }
    if (e.range != want.range || e.offset != want.offset) {
      fail("begin token is at range " + std::to_string(want.range) +
           " offset " + std::to_string(want.offset) +
           ", memo says range " + std::to_string(e.range) + " offset " +
           std::to_string(e.offset));
    }
    const uint64_t* key = value_keys.Find(e.id);
    if (key != nullptr && e.value_key != *key) {
      fail("value key is " + DescribeValueKey(e.value_key) +
           ", stream says " + DescribeValueKey(*key));
    }
  });

  // The path summary: each entry sits in its label path's partition,
  // each partition is in pre order, and a tag's partitions together
  // hold its list exactly once. A list published with no label paths
  // has no partitions (the joins answer for it).
  si->ForEachTag([&](const std::string& tag,
                     const std::vector<StructuralEntry>& list,
                     const std::vector<PathPartition>& parts) {
    if (Full() || parts.empty()) return;
    auto fail = [&](const StructuralEntry* e, std::string what) {
      AuditIssue& issue = Add(AuditLayer::kStructuralIndex,
                              "path summary of <" + tag + ">: " + what);
      if (e == nullptr) return;
      issue.node = e->id;
      issue.range = e->range;
      issue.offset = e->offset;
      issue.has_offset = true;
    };
    std::vector<uint8_t> held(list.size(), 0);
    for (const PathPartition& part : parts) {
      const std::string path = part.path->ToString();
      const bool whole = parts.size() == 1 && part.entries.empty();
      const size_t n = whole ? list.size() : part.entries.size();
      for (size_t i = 0; i < n; ++i) {
        const StructuralEntry* e = whole ? &list[i] : part.entries[i];
        if (e < list.data() || e >= list.data() + list.size()) {
          fail(nullptr, "partition " + path + " holds an entry of no list");
          continue;
        }
        if (held[static_cast<size_t>(e - list.data())]++ != 0) {
          fail(e, "entry is in two partitions");
        }
        if (i > 0 && e->pre <= (whole ? list[i - 1] : *part.entries[i - 1])
                                   .pre) {
          fail(e, "partition " + path + " is not sorted by pre");
        }
        auto it = fresh.find(e->id);
        if (it != fresh.end() && label_paths[it->second.path] != path) {
          fail(e, "entry is in partition " + path + ", stream says " +
                      label_paths[it->second.path]);
        }
      }
    }
    for (size_t i = 0; i < list.size(); ++i) {
      if (held[i] == 0) fail(&list[i], "entry is in no partition");
    }
  });
}

void StoreAuditor::AuditHeapAndOverflow() {
  const RangeManager& rm = *store_->ranges_;
  const RecordStore* rs = rm.range_records();
  Pager* pager = store_->pager_.get();
  // Every live slot on a heap-chain page, keyed page << 16 | slot.
  auto slot_key = [](PageId page, uint16_t slot) {
    return uint64_t{page} << 16 | slot;
  };
  std::vector<uint64_t> live_slots;

  // Walk the heap chain checking page structure and back-pointers.
  PageId page = rs->data_head();
  PageId prev = kInvalidPageId;
  while (page != kInvalidPageId) {
    if (Full()) return;
    if (!heap_pages_.insert(page).second) {
      Add(AuditLayer::kSlottedPage, "heap page chain cycles back").page = page;
      break;
    }
    auto handle_r = pager->Fetch(page);
    if (!handle_r.ok()) {
      Add(AuditLayer::kPage,
          "heap page unreadable: " + handle_r.status().ToString())
          .page = page;
      break;
    }
    PageHandle handle = std::move(*handle_r);
    if (handle.view().type() != PageType::kSlotted) {
      Add(AuditLayer::kSlottedPage,
          "page on the heap chain has type " +
              std::to_string(static_cast<int>(handle.view().type())) +
              ", expected kSlotted")
          .page = page;
      break;  // not a slotted page; its next pointer is garbage
    }
    SlottedPage sp(handle.view());
    if (sp.prev_page() != prev) {
      Add(AuditLayer::kSlottedPage,
          "heap chain prev pointer is " + std::to_string(sp.prev_page()) +
              ", expected " + std::to_string(prev))
          .page = page;
    }
    std::vector<std::string> problems;
    sp.CheckStructure(&problems);
    for (std::string& p : problems) {
      if (Full()) return;
      Add(AuditLayer::kSlottedPage, std::move(p)).page = page;
    }
    for (uint16_t slot = 0; slot < sp.slot_count(); ++slot) {
      if (sp.Get(slot).ok()) live_slots.push_back(slot_key(page, slot));
    }
    Claim(page, "heap");
    ++report_.heap_pages;
    prev = page;
    page = sp.next_page();
    if (report_.heap_pages > pager->page_count()) {
      Add(AuditLayer::kSlottedPage, "heap chain longer than the page file");
      break;
    }
  }
  if (report_.heap_pages != rs->stats().data_pages) {
    Add(AuditLayer::kMeta, "heap chain has " +
                               std::to_string(report_.heap_pages) +
                               " page(s), data_pages counter says " +
                               std::to_string(rs->stats().data_pages));
  }

  // Cross-check every RangeMeta's payload location against the heap: the
  // anchor slot must be live on a chain page and anchor no other range,
  // inline lengths must match, and overflow chains must have exactly the
  // pages the recorded length implies.
  const uint32_t piece = pager->page_size() - kPageHeaderSize - 4;
  std::unordered_map<uint64_t, RangeId> anchors;
  Status st = rm.ForEachMeta([&](const RangeMeta& meta) {
    if (Full()) return false;
    const RecordLocation loc = meta.location();
    auto flag = [&](AuditLayer layer, std::string what) -> AuditIssue& {
      AuditIssue& issue = Add(layer, std::move(what));
      issue.page = loc.page;
      issue.slot = loc.slot;
      issue.range = meta.id;
      return issue;
    };
    if (heap_pages_.find(loc.page) == heap_pages_.end()) {
      flag(AuditLayer::kSlottedPage,
           "range payload anchor page is not on the heap chain");
      return true;
    }
    auto [shared, first] =
        anchors.emplace(slot_key(loc.page, loc.slot), meta.id);
    if (!first) {
      flag(AuditLayer::kSlottedPage,
           "heap slot anchors ranges " + std::to_string(shared->second) +
               " and " + std::to_string(meta.id));
      return true;
    }
    auto handle_r = pager->Fetch(loc.page);
    if (!handle_r.ok()) return true;  // already reported by the chain walk
    PageHandle handle = std::move(*handle_r);
    SlottedPage sp(handle.view());
    auto record = sp.Get(loc.slot);
    if (!record.ok()) {
      flag(AuditLayer::kSlottedPage,
           "range meta points at a dead slot: " + record.status().ToString());
      return true;
    }
    if (loc.kind == RecordLocation::kInline) {
      if (record->size() != loc.len) {
        flag(AuditLayer::kSlottedPage,
             "inline record is " + std::to_string(record->size()) +
                 " byte(s), range meta says " + std::to_string(loc.len));
      }
      return true;
    }
    if (loc.kind != RecordLocation::kOverflow) {
      flag(AuditLayer::kSlottedPage,
           "unknown record kind " + std::to_string(loc.kind));
      return true;
    }
    if (record->size() != 4) {
      flag(AuditLayer::kOverflow, "overflow anchor slot is " +
                                      std::to_string(record->size()) +
                                      " byte(s), expected 4");
      return true;
    }
    PageId over = DecodeFixed32(record->data());
    handle.Release();
    const uint32_t expected_pages = (loc.len + piece - 1) / piece;
    uint32_t walked = 0;
    std::unordered_set<PageId> chain_seen;
    while (over != kInvalidPageId && walked <= expected_pages) {
      if (!chain_seen.insert(over).second) {
        flag(AuditLayer::kOverflow, "overflow chain cycles back").page = over;
        return true;
      }
      auto over_r = pager->Fetch(over);
      if (!over_r.ok()) {
        flag(AuditLayer::kOverflow,
             "overflow page unreadable: " + over_r.status().ToString())
            .page = over;
        return true;
      }
      PageHandle oh = std::move(*over_r);
      if (oh.view().type() != PageType::kOverflow) {
        flag(AuditLayer::kOverflow,
             "page on an overflow chain has type " +
                 std::to_string(static_cast<int>(oh.view().type())) +
                 ", expected kOverflow")
            .page = over;
        return true;
      }
      Claim(over, "overflow");
      ++report_.overflow_pages;
      ++walked;
      over = DecodeFixed32(oh.view().payload());
    }
    if (walked != expected_pages) {
      flag(AuditLayer::kOverflow,
           "overflow chain has " + std::to_string(walked) +
               " page(s); range meta length " + std::to_string(loc.len) +
               " implies " + std::to_string(expected_pages));
    }
    return true;
  });
  if (!st.ok()) {
    Add(AuditLayer::kBTree,
        "range-meta-tree iteration failed: " + st.ToString());
    return;
  }
  // A live slot no range points at is a payload leaked by a mutation
  // that dropped its range but not its record.
  for (uint64_t key : live_slots) {
    if (Full()) return;
    if (anchors.count(key) != 0) continue;
    AuditIssue& issue = Add(AuditLayer::kSlottedPage,
                            "live heap slot anchors no range (leaked "
                            "payload)");
    issue.page = static_cast<PageId>(key >> 16);
    issue.slot = static_cast<uint16_t>(key & 0xFFFF);
  }
}

void StoreAuditor::AuditResidentLocations() {
  if (Full()) return;
  // Every payload read looks its location up in the resident map, so a
  // copy that drifted from the meta tree misdirects reads that the
  // tree-based legs above never make. Reports only the first difference:
  // the entry count, else the first entry that differs.
  const RangeManager& rm = *store_->ranges_;
  uint64_t tree_entries = 0;
  AuditIssue first;
  auto show = [](const RecordLocation& loc) {
    return "page " + std::to_string(loc.page) + " slot " +
           std::to_string(loc.slot) + " kind " + std::to_string(loc.kind) +
           " len " + std::to_string(loc.len);
  };
  Status st = rm.ForEachMeta([&](const RangeMeta& meta) {
    ++tree_entries;
    if (!first.message.empty()) return true;  // keep counting
    Result<RecordLocation> got = rm.Locate(meta.id);
    if (got.ok() && *got == meta.location()) return true;
    first.layer = AuditLayer::kBTree;
    first.message = "range-meta-tree: resident location " +
                    (got.ok() ? "has " + show(*got) : std::string("missing")) +
                    ", the range meta has " + show(meta.location());
    first.range = meta.id;
    first.page = meta.page;
    return true;
  });
  if (!st.ok()) return;  // the heap leg already reported the failure
  if (tree_entries != rm.location_count()) {
    Add(AuditLayer::kBTree,
        "range-meta-tree: resident map has " +
            std::to_string(rm.location_count()) +
            " location(s), the tree has " + std::to_string(tree_entries));
  } else if (!first.message.empty()) {
    report_.issues.push_back(std::move(first));
  }
}

void StoreAuditor::AuditWal() {
  if (store_->wal_ == nullptr) return;
  AuditWalFile(store_->wal_->path(), &report_);
}

void StoreAuditor::AuditPageSweep() {
  Pager* pager = store_->pager_.get();
  PageFile* file = pager->file();
  owners_.emplace(0, "meta");

  // The allocator free chain: right length, every page typed kFree.
  const uint32_t expect = file->free_page_count();
  PageId cur = file->free_head();
  uint32_t walked = 0;
  std::unordered_set<PageId> chain_seen;
  while (cur != kInvalidPageId && walked <= expect) {
    if (Full()) return;
    if (!chain_seen.insert(cur).second) {
      Add(AuditLayer::kFreeChain, "free chain cycles back").page = cur;
      break;
    }
    Claim(cur, "free-chain");
    ++walked;
    auto handle_r = pager->Fetch(cur);
    if (!handle_r.ok()) {
      Add(AuditLayer::kFreeChain,
          "free page unreadable: " + handle_r.status().ToString())
          .page = cur;
      break;
    }
    PageHandle handle = std::move(*handle_r);
    if (handle.view().type() != PageType::kFree) {
      Add(AuditLayer::kFreeChain,
          "page on the free chain has type " +
              std::to_string(static_cast<int>(handle.view().type())) +
              ", expected kFree")
          .page = cur;
    }
    cur = DecodeFixed32(handle.view().payload());
  }
  if (walked != expect) {
    Add(AuditLayer::kFreeChain,
        "free chain has " + std::to_string(walked) +
            " page(s), allocator says " + std::to_string(expect));
  }

  // Sweep every allocated page: checksum + self-id (verified by the
  // fetch), sane type byte, and single ownership.
  const uint32_t page_count = pager->page_count();
  for (PageId id = 1; id < page_count; ++id) {
    if (Full()) return;
    ++report_.pages_swept;
    auto handle_r = pager->Fetch(id);
    if (!handle_r.ok()) {
      Add(AuditLayer::kPage, handle_r.status().ToString()).page = id;
      continue;
    }
    PageHandle handle = std::move(*handle_r);
    // An all-zero page was allocated but never written — the normal
    // state of tail pages after a crash before the next checkpoint
    // (recovery rewrites them from the WAL). Not an anomaly.
    const uint8_t* bytes = handle.data();
    bool all_zero = true;
    for (uint32_t i = 0; i < pager->page_size(); ++i) {
      if (bytes[i] != 0) {
        all_zero = false;
        break;
      }
    }
    if (all_zero) continue;
    PageType type = handle.view().type();
    if (type > PageType::kBTreeLeaf) {
      Add(AuditLayer::kPage,
          "unknown page type " + std::to_string(static_cast<int>(type)))
          .page = id;
      continue;
    }
    if (owners_.find(id) != owners_.end()) continue;
    if (type == PageType::kFree) {
      // Never-written tail pages read back all-zero and type kFree; a
      // formatted free page off the chain is the real anomaly, but the
      // two are indistinguishable here, so both count as chain gaps
      // only when the chain walk above already flagged a length
      // mismatch. Report the page itself for precise coordinates.
      Add(AuditLayer::kFreeChain, "free page not reachable from the chain")
          .page = id;
    } else {
      Add(AuditLayer::kPage, "allocated page reachable from no structure")
          .page = id;
    }
  }
}

}  // namespace laxml
