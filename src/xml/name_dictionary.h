// Per-store name dictionary: interns element/attribute names to dense
// u32 symbol ids so a stored range payload (xml/token_codec.h) holds a
// 1-2 byte varint where the inline form holds [name_len][name bytes].
// Tag vocabularies in real XML are tiny and wildly repetitive (PAPERS.md: "Fast and Tiny Structural
// Self-Indexes for XML"), so the dictionary pays for itself within a
// handful of tokens.
//
// Properties the rest of the engine relies on:
//   * Append-only: a symbol id, once assigned, never changes or goes
//     away. On-page symbol references therefore stay valid across any
//     later interning.
//   * Deterministic: interning the same name sequence always yields the
//     same ids, so WAL replay (which re-executes logical ops) rebuilds
//     an identical dictionary.
//   * Bounded: the serialized dictionary must fit the pager meta blob
//     alongside the store header, so Intern stops handing out ids once
//     a byte budget is reached and returns kNoNameSymbol — the encoder
//     then writes the name inline after a code-0 marker. A budget of 1
//     admits no symbol at all, so every new name is stored inline: the
//     reference form the torture oracles and differential tests check
//     the symbol-coded form against.
//
// Thread safety: mutation (Intern) happens only under the store's
// exclusive latch; lookups run under the shared latch. No internal
// locking is needed — the same discipline as every other store-owned
// structure (DESIGN.md §14).

#ifndef LAXML_XML_NAME_DICTIONARY_H_
#define LAXML_XML_NAME_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace laxml {

/// Sentinel: "no symbol" (name not interned / dictionary full).
inline constexpr uint32_t kNoNameSymbol = UINT32_MAX;

class NameDictionary {
 public:
  NameDictionary() = default;

  /// Serialized size limit. 0 = unbounded (tests); the Store sets it
  /// from the pager meta area budget at open; 1 interns nothing new.
  void set_byte_budget(size_t budget) { byte_budget_ = budget; }
  size_t byte_budget() const { return byte_budget_; }

  /// Returns the symbol for `name`, interning it if new. Returns
  /// kNoNameSymbol when the name is unknown AND adding it would
  /// overflow the byte budget (caller falls back to an inline name).
  uint32_t Intern(std::string_view name);

  /// Returns the symbol for `name` or kNoNameSymbol when absent. Never
  /// mutates — safe under the shared latch.
  uint32_t Find(std::string_view name) const;

  /// Resolves a symbol to its name; nullptr when out of range.
  const std::string* NameOf(uint32_t symbol) const {
    if (symbol >= names_.size()) return nullptr;
    return &names_[symbol];
  }

  /// Number of interned symbols.
  uint32_t size() const { return static_cast<uint32_t>(names_.size()); }

  /// Serialized size in bytes (exactly what Serialize would append,
  /// count header included).
  size_t SerializedSize() const;

  /// Appends the serialized symbol log to `dst`:
  ///   [symbol_count varint] then per symbol [len varint][bytes].
  /// Symbols appear in id order so deserialization reassigns the same
  /// ids.
  void Serialize(std::vector<uint8_t>* dst) const;

  /// Rebuilds the dictionary from a serialized symbol log. Fails with
  /// Corruption on truncated input or non-UTF-8-sized lengths; on
  /// success consumes the whole of `in`.
  Status Deserialize(Slice in);

  /// Drops every symbol (tests / re-init).
  void Clear();

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> ids_;
  size_t serialized_size_ = 0;  ///< Running Serialize() size.
  size_t byte_budget_ = 0;      ///< 0 = unbounded.
};

}  // namespace laxml

#endif  // LAXML_XML_NAME_DICTIONARY_H_
