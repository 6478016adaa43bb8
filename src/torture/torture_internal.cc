#include "torture/torture_internal.h"

#include "xml/serializer.h"
#include "xml/token_codec.h"
#include "xml/tokenizer.h"

namespace laxml {
namespace torture {

uint64_t MixSeed(uint64_t seed, uint64_t iteration) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (iteration + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

bool IsEnvironmental(const Status& s) {
  return s.IsIOError() || s.IsCorruption() || s.IsNoSpace() ||
         s.IsResourceExhausted() || s.IsPoisoned();
}

Result<NodeId> ApplyOp(Store& store, const TortureOp& op) {
  TokenSequence frag;
  if (!op.xml.empty()) {
    LAXML_ASSIGN_OR_RETURN(frag, ParseFragment(op.xml));
  }
  return store.Apply(op.kind, op.target, frag);
}

NodeId PickTarget(Random& rng, Store& oracle) {
  const uint64_t high = oracle.node_high_water();
  if (high == 0) return kInvalidNodeId;
  for (int attempt = 0; attempt < 8; ++attempt) {
    NodeId id = static_cast<NodeId>(rng.Range(1, high));
    if (oracle.Exists(id)) return id;
  }
  return kInvalidNodeId;
}

std::string RandomFragment(Random& rng) {
  const std::string name = rng.NextName(1 + rng.Uniform(6));
  switch (rng.Uniform(4)) {
    case 0:
      return "<" + name + "/>";
    case 1:
      return "<" + name + ">" + rng.NextText(1 + rng.Uniform(24)) + "</" +
             name + ">";
    case 2:
      return "<" + name + " a=\"" + rng.NextName(3) + "\"><" +
             rng.NextName(3) + "/>" + rng.NextText(1 + rng.Uniform(12)) +
             "</" + name + ">";
    default:
      // Occasional large text child stresses overflow records and
      // multi-page ranges under the small torture page size.
      return "<" + name + ">" + rng.NextText(40 + rng.Uniform(200)) + "</" +
             name + ">";
  }
}

std::string Render(const TokenSequence& tokens) {
  auto xml = SerializeTokens(tokens);
  if (xml.ok()) return *xml;
  std::string out = "(not XML-expressible) 0x";
  for (uint8_t byte : EncodeTokens(tokens)) {
    static const char kHex[] = "0123456789abcdef";
    out += kHex[byte >> 4];
    out += kHex[byte & 0xf];
  }
  return out;
}

std::string DescribeDivergence(const TokenSequence& got_tokens,
                               const TokenSequence& want_tokens) {
  const std::string got = Render(got_tokens);
  const std::string want = Render(want_tokens);
  size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  auto window = [i](const std::string& s) {
    const size_t from = i > 30 ? i - 30 : 0;
    return s.substr(from, 60);
  };
  return "first divergence at byte " + std::to_string(i) +
         " (recovered " + std::to_string(got.size()) + "B vs oracle " +
         std::to_string(want.size()) + "B): recovered \"..." +
         window(got) + "...\" oracle \"..." + window(want) + "...\"";
}

std::string CrashFiles(Random& rng, FaultyFile* pages, FaultyFile* wal,
                       uint64_t* torn_tails) {
  uint64_t keep = 0;
  const uint64_t unsynced = wal->unsynced_bytes();
  if (unsynced > 0 && rng.Bernoulli(0.5)) {
    keep = rng.Range(1, unsynced);
    ++*torn_tails;
  }
  const std::string cut = "wal keeps " + std::to_string(keep) + " of " +
                          std::to_string(unsynced) +
                          " unsynced bytes, page file keeps 0 of " +
                          std::to_string(pages->unsynced_bytes());
  wal->Crash(keep);
  pages->Crash(0);
  return cut;
}

}  // namespace torture
}  // namespace laxml
