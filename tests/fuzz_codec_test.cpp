// Robustness ("fuzz-lite") tests for the wire codecs: malformed,
// truncated and bit-flipped inputs must produce DecodeError — never
// crashes, hangs, or silent garbage. A measurement pipeline that
// ingests years of third-party MRT archives lives or dies on this
// (the paper cites corrupted records from FRR ADD-PATH encodings as a
// real operational hazard). The JSON codec gets the same treatment:
// RIS-Live lines arrive from the network, so a mutated line must parse
// or be rejected, never crash or throw.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "beacon/clock.hpp"
#include "live/feed.hpp"
#include "live/service.hpp"
#include "mrt/codec.hpp"
#include "netbase/json.hpp"
#include "netbase/rng.hpp"

namespace zombiescope {
namespace {

using netbase::DecodeError;
using netbase::IpAddress;
using netbase::Prefix;
using netbase::Rng;

std::vector<std::uint8_t> sample_update_wire() {
  bgp::UpdateMessage msg;
  msg.announced.push_back(Prefix::parse("2a0d:3dc1:1851::/48"));
  msg.attributes.as_path = bgp::AsPath{61573, 28598, 8298, 210312};
  msg.attributes.next_hop = IpAddress::parse("2001:db8::1");
  msg.attributes.aggregator =
      beacon::make_beacon_aggregator(12654, netbase::utc(2018, 7, 15, 12, 0, 0));
  msg.attributes.communities = {{8298, 100}};
  return msg.encode();
}

std::vector<std::uint8_t> sample_mrt_stream() {
  mrt::Bgp4mpMessage m;
  m.timestamp = netbase::utc(2024, 6, 4, 12, 0, 0);
  m.peer_asn = 211509;
  m.local_asn = 12654;
  m.peer_address = IpAddress::parse("2001:678:3f4:5::1");
  m.local_address = IpAddress::parse("2001:7f8::1");
  m.update = bgp::UpdateMessage::decode(sample_update_wire());
  mrt::MrtWriter writer;
  writer.write(m);
  mrt::PeerIndexTable t;
  t.timestamp = m.timestamp;
  t.view_name = "rrc25";
  t.peers.push_back({1, m.peer_address, m.peer_asn});
  writer.write(t);
  mrt::RibEntryRecord rib;
  rib.timestamp = m.timestamp;
  rib.prefix = Prefix::parse("2a0d:3dc1:1851::/48");
  mrt::RibEntryRecord::Entry e;
  e.peer_index = 0;
  e.attributes = m.update.attributes;
  rib.entries.push_back(e);
  writer.write(rib);
  return writer.take();
}

// Either a clean parse or a DecodeError — nothing else.
template <typename Fn>
void expect_parse_or_decode_error(Fn&& fn) {
  try {
    fn();
  } catch (const DecodeError&) {
    // fine
  }
  // Any other exception type (or a crash) fails the test harness.
}

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, TruncatedUpdatesNeverCrash) {
  const auto wire = sample_update_wire();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    std::vector<std::uint8_t> cut(wire.begin(), wire.begin() + static_cast<long>(len));
    expect_parse_or_decode_error([&] { (void)bgp::UpdateMessage::decode(cut); });
  }
}

TEST_P(CodecFuzz, BitFlippedUpdatesNeverCrash) {
  Rng rng(GetParam());
  const auto original = sample_update_wire();
  for (int iter = 0; iter < 2000; ++iter) {
    auto wire = original;
    const int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int f = 0; f < flips; ++f) {
      const auto pos = rng.index(wire.size());
      wire[pos] = static_cast<std::uint8_t>(wire[pos] ^ (1u << rng.uniform_int(0, 7)));
    }
    expect_parse_or_decode_error([&] {
      const auto msg = bgp::UpdateMessage::decode(wire);
      // If it parsed, it must re-encode without crashing too.
      (void)msg.encode();
    });
  }
}

TEST_P(CodecFuzz, RandomBytesAsUpdatesNeverCrash) {
  Rng rng(GetParam() + 1);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> junk(rng.uniform_int(0, 128));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    expect_parse_or_decode_error([&] { (void)bgp::UpdateMessage::decode(junk); });
  }
}

TEST_P(CodecFuzz, TruncatedMrtStreamsNeverCrash) {
  const auto stream = sample_mrt_stream();
  for (std::size_t len = 0; len < stream.size(); len += 3) {
    std::vector<std::uint8_t> cut(stream.begin(), stream.begin() + static_cast<long>(len));
    expect_parse_or_decode_error([&] { (void)mrt::decode_all(cut); });
  }
}

TEST_P(CodecFuzz, BitFlippedMrtStreamsNeverCrash) {
  Rng rng(GetParam() + 2);
  const auto original = sample_mrt_stream();
  for (int iter = 0; iter < 2000; ++iter) {
    auto stream = original;
    const int flips = static_cast<int>(rng.uniform_int(1, 6));
    for (int f = 0; f < flips; ++f) {
      const auto pos = rng.index(stream.size());
      stream[pos] = static_cast<std::uint8_t>(stream[pos] ^ (1u << rng.uniform_int(0, 7)));
    }
    expect_parse_or_decode_error([&] { (void)mrt::decode_all(stream); });
  }
}

TEST_P(CodecFuzz, RandomBytesAsMrtNeverCrash) {
  Rng rng(GetParam() + 3);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> junk(rng.uniform_int(0, 200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    expect_parse_or_decode_error([&] { (void)mrt::decode_all(junk); });
  }
}

TEST_P(CodecFuzz, ParsedGarbageReachesCanonicalFormInOneStep) {
  // Whatever survives decoding must re-encode into a *canonical* form:
  // encode(decode(encode(decode(x)))) == encode(decode(x)). Attributes
  // attached to withdrawal-only messages are deliberately dropped
  // (UpdateMessage documents attributes as meaningful only for
  // announcements), so value equality is checked on the canonical
  // wire, where that normalization has already happened.
  Rng rng(GetParam() + 4);
  const auto original = sample_update_wire();
  int survivors = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    auto wire = original;
    const auto pos = rng.index(wire.size());
    wire[pos] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    bgp::UpdateMessage msg;
    try {
      msg = bgp::UpdateMessage::decode(wire);
    } catch (const DecodeError&) {
      continue;
    }
    ++survivors;
    const auto canonical = msg.encode();
    const auto msg2 = bgp::UpdateMessage::decode(canonical);
    EXPECT_EQ(msg2.encode(), canonical);
    EXPECT_EQ(msg2.announced, msg.announced);
    EXPECT_EQ(msg2.withdrawn, msg.withdrawn);
    if (msg.is_announcement()) {
      EXPECT_EQ(msg2.attributes, msg.attributes);
    }
  }
  EXPECT_GT(survivors, 0);  // some single-byte changes are benign
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(101, 202, 303));

TEST(ClockFuzz, AggregatorDecodeTotalOnAllAddresses) {
  Rng rng(7);
  for (int iter = 0; iter < 5000; ++iter) {
    const auto addr = IpAddress::v4(static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL)));
    const auto t = netbase::utc(2018, 7, 19) + rng.uniform_int(0, 400 * netbase::kDay);
    const auto decoded = beacon::decode_aggregator_clock(addr, t);
    if (decoded.has_value()) {
      EXPECT_LE(*decoded, t);
      EXPECT_GE(*decoded, t - 32 * netbase::kDay);  // at most one month back
    }
  }
}

// --- JSON ------------------------------------------------------------

// The RIS-Live fixture line live_test parses (wrapped UPDATE with an
// AS_SET in the path).
constexpr const char* kRisLiveSeed =
    R"({"type":"ris_message","data":{"timestamp":1717500000.42,)"
    R"("peer":"192.0.2.1","peer_asn":"64500","type":"UPDATE",)"
    R"("path":[64500,[25091,25092],8298,210312],)"
    R"("announcements":[{"next_hop":"192.0.2.1",)"
    R"("prefixes":["93.175.147.0/24","2a0d:3dc1:1200::/48"]}],)"
    R"("withdrawals":["93.175.146.0/24"]}})";

std::string bench_snapshot_seed() {
  std::ifstream in(ZS_SOURCE_DIR "/BENCH_tsdb_overhead.json");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string live_stats_seed() {
  live::LiveConfig config;
  config.shards = 2;
  live::LiveService service(config);
  return service.stats_json();
}

/// The three seed documents; each must parse unmutated, or the fuzz
/// would only ever exercise the first-byte rejection path.
std::vector<std::string> json_seeds() {
  std::vector<std::string> seeds = {kRisLiveSeed, bench_snapshot_seed(),
                                    live_stats_seed()};
  for (const std::string& seed : seeds) {
    EXPECT_TRUE(netbase::parse_json(seed).has_value()) << seed.substr(0, 80);
  }
  return seeds;
}

/// One to eight byte-level edits of one kind: 0 truncates, 1 flips
/// bits, 2 inserts bytes (biased towards JSON's structural characters
/// so insertions reach past the first token).
std::string mutate_json(std::string doc, int kind, Rng& rng) {
  if (kind == 0) {
    doc.resize(rng.index(doc.size() + 1));
    return doc;
  }
  static constexpr char kStructural[] = "{}[]\",:\\u0-e.";
  const int edits = static_cast<int>(rng.uniform_int(1, 8));
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos = rng.index(doc.size() + (kind == 2 ? 1 : 0));
    if (kind == 1) {
      if (doc.empty()) break;
      doc[pos] = static_cast<char>(doc[pos] ^ (1 << rng.uniform_int(0, 7)));
    } else {
      const char c = rng.chance(0.5)
                         ? kStructural[rng.index(sizeof(kStructural) - 1)]
                         : static_cast<char>(rng.uniform_int(0, 255));
      doc.insert(doc.begin() + static_cast<long>(pos), c);
    }
  }
  return doc;
}

// A fixed budget per seed document and mutation kind.
constexpr int kJsonFuzzIterations = 2000;

class JsonFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonFuzz, MutatedDocumentsParseOrReject) {
  Rng rng(GetParam());
  for (const std::string& seed : json_seeds()) {
    for (int kind = 0; kind < 3; ++kind) {
      for (int iter = 0; iter < kJsonFuzzIterations; ++iter) {
        const std::string doc = mutate_json(seed, kind, rng);
        const auto parsed = netbase::parse_json(doc);
        if (parsed.has_value() && parsed->kind == netbase::JsonValue::Kind::kObject) {
          (void)parsed->find("type");
        }
      }
    }
  }
}

TEST_P(JsonFuzz, TruncatedDocumentsAreRejected) {
  // Each seed instance covers every third length; together they cover
  // every cut before the document's closing brace.
  for (const std::string& seed : json_seeds()) {
    const std::size_t closing = seed.rfind('}');
    for (std::size_t len = GetParam() % 3; len <= closing; len += 3) {
      EXPECT_FALSE(netbase::parse_json(seed.substr(0, len)).has_value())
          << "prefix of length " << len;
    }
  }
}

TEST_P(JsonFuzz, MutatedRisLiveLinesNeverThrow) {
  Rng rng(GetParam() + 1);
  int parsed = 0;
  for (int kind = 0; kind < 3; ++kind) {
    for (int iter = 0; iter < kJsonFuzzIterations; ++iter) {
      const std::string line = mutate_json(kRisLiveSeed, kind, rng);
      EXPECT_NO_THROW({
        if (live::parse_ris_live_line(line).has_value()) ++parsed;
      }) << line;
    }
  }
  EXPECT_GT(parsed, 0);  // some edits are benign (inside a string, say)
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzz, ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace zombiescope
