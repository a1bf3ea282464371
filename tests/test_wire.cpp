// Byte-level contracts of the binary formats, and hostile input for their
// decoders.
//
// The pins hold every format to its exact bytes: a size and an FNV-1a hash per
// encoding — model updates (SFAV), fp16/int8 payloads (SFQP), channel
// envelopes (SFEV), checkpoint containers (SFCG) and the section list that is
// both SFCG's body and the resident server's model reply. The inputs come
// from integer arithmetic only (values k/16, masks from residues), so every
// compiler builds the same tensors and the same bytes. A session checkpoint
// (SFSN) is decoded field by field with this file's own little-endian reader.
//
// The hostile cases feed the decoders bytes no encoder wrote: every proper
// prefix of every encoding, seeded mutations (of the in-memory formats and of
// a whole session file), a session file whose curve count claims 2^32 - 1
// points, one whose round counter claims 2^40 rounds, a directory in place of
// a file, and JSON nested far deeper than any document the repo writes. Each
// decoder must decode or throw CheckError — never crash, never throw anything
// else. A checkpoint write that fails must leave the previous checkpoint
// intact.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "comm/channel.h"
#include "comm/serialize.h"
#include "fl/checkpoint.h"
#include "fl/experiment.h"
#include "serve/session.h"
#include "util/check.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/rng.h"

namespace subfed {
namespace {

using Bytes = std::vector<std::uint8_t>;

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Values k/16 for k in [-50, 50]: exact in fp32, so no compiler rounds them
/// differently.
Tensor ramp(const Shape& shape, std::size_t salt) {
  Tensor t{shape};
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const int k = static_cast<int>((i * 37 + salt * 11) % 101) - 50;
    t[i] = static_cast<float>(k) / 16.0f;
  }
  return t;
}

/// Keeps four positions in five.
Tensor keep_pattern(const Shape& shape, std::size_t salt) {
  Tensor t{shape};
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = (i * 7 + salt) % 5 != 0 ? 1.0f : 0.0f;
  return t;
}

/// Two masked entries (one of 65 elements, so its bitmap ends mid-byte) and
/// two dense ones.
StateDict pin_state() {
  StateDict state;
  state.add("conv1.weight", ramp(Shape{4, 1, 3, 3}, 1));
  state.add("conv1.bias", ramp(Shape{4}, 2));
  state.add("fc.weight", ramp(Shape{5, 13}, 3));
  state.add("fc.bias", ramp(Shape{5}, 4));
  return state;
}

ModelMask pin_mask() {
  ModelMask mask;
  mask.set("conv1.weight", keep_pattern(Shape{4, 1, 3, 3}, 1));
  mask.set("fc.weight", keep_pattern(Shape{5, 13}, 3));
  return mask;
}

StateDict mask_as_state(const ModelMask& mask) {
  StateDict state;
  for (const char* name : {"conv1.weight", "fc.weight"}) state.add(name, *mask.find(name));
  return state;
}

Bytes pin_envelope() {
  const StateDict state = pin_state();
  const ModelMask mask = pin_mask();
  Envelope envelope;
  envelope.kind = MessageKind::kClientUpdate;
  envelope.round = 7;
  envelope.client = 3;
  envelope.num_examples = 0x0102030405ULL;
  envelope.quantize = QuantCodec::kInt8;
  envelope.delta = true;
  envelope.sections.push_back(encode_payload(state, &mask, QuantCodec::kInt8));
  envelope.sections.push_back(encode_update(mask_as_state(mask), nullptr));
  return encode_envelope(envelope);
}

Bytes pin_sections() {
  return encode_state_sections("pin", {pin_state(), mask_as_state(pin_mask())});
}

/// The decoded payload re-encoded at fp32 with its recovered mask: pins the
/// decoded values to the bit.
Bytes round_tripped(const Bytes& payload) {
  ModelMask recovered;
  const StateDict decoded = decode_payload(payload, &recovered);
  return encode_update(decoded, recovered.empty() ? nullptr : &recovered);
}

struct Pin {
  const char* name;
  Bytes bytes;
  std::size_t size;
  std::uint64_t hash;
};

std::vector<Pin> pins() {
  const StateDict state = pin_state();
  const ModelMask mask = pin_mask();
  const Bytes sfcg = pin_sections();
  // SFCG = magic, version, u32-prefixed name ("pin"), then the section list.
  const Bytes section_list(sfcg.begin() + 4 + 4 + 4 + 3, sfcg.end());
  const Bytes fp16_masked = encode_payload(state, &mask, QuantCodec::kFp16);
  const Bytes int8_masked = encode_payload(state, &mask, QuantCodec::kInt8);
  return {
      {"update dense", encode_update(state, nullptr), 0, 0},
      {"update masked", encode_update(state, &mask), 0, 0},
      {"payload none dense", encode_payload(state, nullptr, QuantCodec::kNone), 0, 0},
      {"payload none masked", encode_payload(state, &mask, QuantCodec::kNone), 0, 0},
      {"payload fp16 dense", encode_payload(state, nullptr, QuantCodec::kFp16), 0, 0},
      {"payload fp16 masked", fp16_masked, 0, 0},
      {"payload int8 dense", encode_payload(state, nullptr, QuantCodec::kInt8), 0, 0},
      {"payload int8 masked", int8_masked, 0, 0},
      {"payload fp16 round-tripped", round_tripped(fp16_masked), 0, 0},
      {"payload int8 round-tripped", round_tripped(int8_masked), 0, 0},
      {"envelope", pin_envelope(), 0, 0},
      {"checkpoint container", sfcg, 0, 0},
      {"section list", section_list, 0, 0},
  };
}

TEST(WirePins, EveryFormatKeepsItsBytes) {
  struct Expected {
    std::size_t size;
    std::uint64_t hash;
  };
  const Expected expected[] = {
      {554, 0xa94e709d42bfc1ULL},  // update dense
      {488, 0x5d82c931b3ddaa2dULL},  // update masked
      {554, 0xa94e709d42bfc1ULL},  // payload none dense
      {488, 0x5d82c931b3ddaa2dULL},  // payload none masked
      {335, 0x44096e5f6720efa5ULL},  // payload fp16 dense
      {309, 0xca2fee9c617ef8eeULL},  // payload fp16 masked
      {241, 0x98f32d8ddfcef365ULL},  // payload int8 dense
      {235, 0xe5a079dfccf73082ULL},  // payload int8 masked
      {488, 0x5d82c931b3ddaa2dULL},  // payload fp16 round-tripped
      {488, 0x3ccee7716ad1b663ULL},  // payload int8 round-tripped
      {746, 0x66c68e052e14f7f6ULL},  // envelope
      {1056, 0x17a4b19f6f58ae92ULL},  // checkpoint container
      {1041, 0xa797cd9946afb706ULL},  // section list
  };
  const std::vector<Pin> actual = pins();
  ASSERT_EQ(actual.size(), std::size(expected));
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].bytes.size(), expected[i].size) << actual[i].name;
    EXPECT_EQ(fnv1a(actual[i].bytes), expected[i].hash)
        << actual[i].name << ": {" << actual[i].bytes.size() << ", 0x" << std::hex
        << fnv1a(actual[i].bytes) << "ULL}";
  }
}

TEST(WirePins, KGetModelBodyIsTheCheckpointSectionList) {
  // u32 section count, then u32-length-prefixed encode_update blobs.
  const Bytes sfcg = pin_sections();
  const std::vector<StateDict> sections = {pin_state(), mask_as_state(pin_mask())};
  Bytes expected = {2, 0, 0, 0};
  for (const StateDict& section : sections) {
    const Bytes blob = encode_update(section, nullptr);
    for (int i = 0; i < 4; ++i) {
      expected.push_back(static_cast<std::uint8_t>(blob.size() >> (8 * i)));
    }
    expected.insert(expected.end(), blob.begin(), blob.end());
  }
  EXPECT_EQ(Bytes(sfcg.begin() + 15, sfcg.end()), expected);
}

// ---------------------------------------------------------------------------
// Session checkpoints (SFSN), decoded field by field

/// Little-endian cursor over a file image; fails the test on overrun.
class LeCursor {
 public:
  explicit LeCursor(const Bytes& bytes) : bytes_(bytes) {}

  std::uint64_t uint(int width) {
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) {
      if (pos_ >= bytes_.size()) {
        ADD_FAILURE() << "read past the end at " << pos_;
        return v;
      }
      v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
    }
    return v;
  }
  std::uint32_t u32() { return static_cast<std::uint32_t>(uint(4)); }
  std::uint64_t u64() { return uint(8); }
  double f64() { return std::bit_cast<double>(uint(8)); }
  Bytes blob() {
    const std::size_t n = u32();
    if (n > bytes_.size() - pos_) {
      ADD_FAILURE() << "blob of " << n << " bytes overruns the file at " << pos_;
      return {};
    }
    Bytes out(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
              bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }
  std::size_t pos() const noexcept { return pos_; }
  bool at_end() const noexcept { return pos_ == bytes_.size(); }

 private:
  const Bytes& bytes_;
  std::size_t pos_ = 0;
};

ExperimentSpec small_spec(const std::string& algo = "fedavg") {
  set_log_level(LogLevel::kWarn);
  ExperimentSpec spec;
  spec.dataset = "mnist";
  spec.algo = algo;
  spec.clients = 4;
  spec.shard = 20;
  spec.test_per_class = 4;
  spec.rounds = 2;
  spec.epochs = 1;
  spec.sample = 0.5;
  spec.eval_every = 1;
  spec.seed = 23;
  return spec;
}

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/subfed_wire_" + name;
  std::filesystem::remove_all(path);
  return path;
}

Bytes slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  Bytes out;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.insert(out.end(), buf, buf + n);
  std::fclose(f);
  return out;
}

void spit(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

std::unique_ptr<FederationSession> session_after_two_rounds(const ExperimentSpec& spec) {
  std::unique_ptr<FederationSession> session = FederationSession::from_spec(spec);
  for (int r = 0; r < 2; ++r) {
    session->advance_round(nullptr);
    session->evaluate(nullptr);
  }
  return session;
}

TEST(WirePins, SessionCheckpointDecodesFieldByField) {
  const ExperimentSpec spec = small_spec();
  const std::unique_ptr<FederationSession> session = session_after_two_rounds(spec);
  const std::string path = temp_path("fields.sfsn");
  session->save(path);
  const Bytes bytes = slurp(path);
  ASSERT_FALSE(bytes.empty());

  LeCursor in(bytes);
  EXPECT_EQ(in.u32(), 0x5346534Eu);  // "SFSN"
  EXPECT_EQ(in.u32(), 2u);           // version
  const Bytes kv = in.blob();
  EXPECT_EQ(std::string(kv.begin(), kv.end()), spec.to_kv());
  const RunResult& progress = session->progress();
  EXPECT_EQ(in.u64(), 2u);  // rounds advanced
  EXPECT_EQ(in.u64(), progress.dropped_clients);
  EXPECT_EQ(in.u64(), progress.skipped_rounds);
  EXPECT_EQ(in.f64(), progress.simulated_seconds);
  EXPECT_EQ(in.u64(), session->total_up_bytes());
  EXPECT_EQ(in.u64(), session->total_down_bytes());
  ASSERT_EQ(in.u32(), progress.curve.size());
  for (const RoundPoint& point : progress.curve) {
    EXPECT_EQ(in.u64(), point.round);
    EXPECT_EQ(in.f64(), point.avg_accuracy);
  }
  // The sampling engine after two rounds' draws (2 of 4 clients each), then
  // the dropout engine, which drew nothing at dropout 0.
  Rng sampling = Rng(spec.seed).split("client-sampling");
  for (int r = 0; r < 2; ++r) (void)sampling.sample_without_replacement(4, 2);
  for (const std::uint64_t word : sampling.state()) EXPECT_EQ(in.u64(), word);
  for (const std::uint64_t word : Rng(spec.seed).split("client-dropout").state()) {
    EXPECT_EQ(in.u64(), word);
  }
  EXPECT_EQ(in.blob(), checkpoint_bytes(session->algorithm()));
  EXPECT_TRUE(in.at_end());
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Hostile input

struct Decoder {
  const char* name;
  Bytes bytes;
  std::function<void(std::span<const std::uint8_t>)> decode;
};

std::vector<Decoder> decoders() {
  const StateDict state = pin_state();
  const ModelMask mask = pin_mask();
  const auto update = [](std::span<const std::uint8_t> b) {
    ModelMask recovered;
    (void)decode_update(b, &recovered);
  };
  const auto payload = [](std::span<const std::uint8_t> b) {
    ModelMask recovered;
    (void)decode_payload(b, &recovered);
  };
  const auto envelope = [](std::span<const std::uint8_t> b) { (void)decode_envelope(b); };
  const auto sections = [](std::span<const std::uint8_t> b) {
    (void)decode_state_sections(b, "pin");
  };
  return {
      {"update dense", encode_update(state, nullptr), update},
      {"update masked", encode_update(state, &mask), update},
      {"payload fp16 dense", encode_payload(state, nullptr, QuantCodec::kFp16), payload},
      {"payload fp16 masked", encode_payload(state, &mask, QuantCodec::kFp16), payload},
      {"payload int8 dense", encode_payload(state, nullptr, QuantCodec::kInt8), payload},
      {"payload int8 masked", encode_payload(state, &mask, QuantCodec::kInt8), payload},
      {"envelope", pin_envelope(), envelope},
      {"checkpoint container", pin_sections(), sections},
  };
}

/// One to three seeded edits: a truncation, a bit flip, a byte stamp or four
/// 0xFF bytes.
void mutate(Bytes& bytes, std::mt19937_64& rng) {
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int e = 0; e < edits && !bytes.empty(); ++e) {
    const std::size_t at = rng() % bytes.size();
    switch (rng() % 4) {
      case 0: bytes.resize(at); break;
      case 1: bytes[at] ^= static_cast<std::uint8_t>(1u << (rng() % 8)); break;
      case 2: bytes[at] = static_cast<std::uint8_t>(rng()); break;
      default:
        for (std::size_t i = at; i < at + 4 && i < bytes.size(); ++i) bytes[i] = 0xFF;
    }
  }
}

/// Runs `decode` and reports anything but success or CheckError.
void expect_decodes_or_check_error(const Decoder& d, std::span<const std::uint8_t> bytes,
                                   const std::string& what) {
  try {
    d.decode(bytes);
  } catch (const CheckError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << d.name << " " << what << ": threw " << e.what();
  }
}

TEST(WireHostile, EveryProperPrefixThrowsCheckError) {
  for (const Decoder& d : decoders()) {
    ASSERT_NO_THROW(d.decode(d.bytes)) << d.name;
    for (std::size_t n = 0; n < d.bytes.size(); ++n) {
      EXPECT_THROW(d.decode(std::span<const std::uint8_t>(d.bytes).first(n)), CheckError)
          << d.name << " prefix " << n;
    }
  }
}

TEST(WireHostile, SeededMutationsDecodeOrThrowCheckError) {
  std::mt19937_64 rng(20261021);
  for (const Decoder& d : decoders()) {
    for (int trial = 0; trial < 3000; ++trial) {
      Bytes bytes = d.bytes;
      mutate(bytes, rng);
      expect_decodes_or_check_error(d, bytes, "mutation " + std::to_string(trial));
    }
  }
}

TEST(WireHostile, SessionFileClaimingFourBillionCurvePointsThrowsCheckError) {
  const std::unique_ptr<FederationSession> session =
      FederationSession::from_spec(small_spec());
  // Magic, version, an empty spec text, six counters, and a curve count of
  // 2^32 - 1 with no points behind it: 64 bytes.
  Bytes file;
  const auto put = [&file](std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) file.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put(0x5346534E, 4);
  put(2, 4);
  put(0, 4);
  for (int i = 0; i < 6; ++i) put(0, 8);
  put(0xFFFFFFFF, 4);
  ASSERT_EQ(file.size(), 64u);
  const std::string path = temp_path("huge_curve.sfsn");
  spit(path, file);
  EXPECT_THROW(session->restore(path), CheckError);
  std::filesystem::remove(path);
}

Bytes saved_session(const ExperimentSpec& spec) {
  const std::unique_ptr<FederationSession> source = session_after_two_rounds(spec);
  const std::string path = temp_path("source.sfsn");
  source->save(path);
  Bytes bytes = slurp(path);
  std::filesystem::remove(path);
  return bytes;
}

TEST(WireHostile, SessionFileClaimingTwoToTheFortyRoundsRestoresAtOnce) {
  // A valid file whose round counter is stamped: restore sets the saved
  // engines instead of replaying a round count nothing bounds.
  const ExperimentSpec spec = small_spec();
  Bytes bytes = saved_session(spec);
  const std::size_t counter = 4 + 4 + 4 + spec.to_kv().size();  // magic, version, spec text
  for (int i = 0; i < 8; ++i) bytes[counter + i] = i == 5 ? 1 : 0;  // 2^40
  const std::string path = temp_path("stamped.sfsn");
  spit(path, bytes);
  const std::unique_ptr<FederationSession> session = FederationSession::from_spec(spec);
  session->restore(path);
  EXPECT_EQ(session->round(), std::size_t{1} << 40);
  std::filesystem::remove(path);
}

TEST(WireHostile, SeededSessionFileMutationsRestoreOrThrowCheckError) {
  // An MTL session: every client's section goes through the store's layout
  // check on restore, so mutated names and shapes must be refused there.
  const ExperimentSpec spec = small_spec("fedmtl");
  const Bytes saved = saved_session(spec);
  const std::unique_ptr<FederationSession> session = FederationSession::from_spec(spec);
  const std::string path = temp_path("mutated.sfsn");
  std::mt19937_64 rng(20261022);
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes bytes = saved;
    mutate(bytes, rng);
    spit(path, bytes);
    try {
      session->restore(path);
    } catch (const CheckError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "session mutation " << trial << ": threw " << e.what();
    }
  }
  std::filesystem::remove(path);
}

TEST(WireHostile, SessionRestoreFromADirectoryThrowsCheckError) {
  const std::unique_ptr<FederationSession> session =
      FederationSession::from_spec(small_spec());
  const std::string dir = temp_path("a_directory");
  std::filesystem::create_directory(dir);
  EXPECT_THROW(session->restore(dir), CheckError);
  std::filesystem::remove_all(dir);
}

TEST(WireHostile, EveryProperPrefixOfASessionFileThrowsCheckError) {
  const ExperimentSpec spec = small_spec();
  const Bytes saved = saved_session(spec);
  ASSERT_GT(saved.size(), 64u);
  const std::unique_ptr<FederationSession> session = FederationSession::from_spec(spec);
  // Every prefix through the header, counters, curve and engines, then a
  // stride through the trailing SFCG blob (whose own prefixes are covered in
  // memory above), then the last bytes.
  const std::size_t header = saved.size() - checkpoint_bytes(session->algorithm()).size();
  const std::string path = temp_path("prefix.sfsn");
  for (std::size_t n = 0; n < saved.size(); ++n) {
    if (n >= header + 8 && n + 16 < saved.size() && (n - header) % 4093 != 0) continue;
    spit(path, std::span<const std::uint8_t>(saved).first(n));
    EXPECT_THROW(session->restore(path), CheckError) << "prefix " << n;
  }
  spit(path, saved);
  EXPECT_NO_THROW(session->restore(path));
  std::filesystem::remove(path);
}

TEST(WireHostile, FailedCheckpointWriteLeavesThePreviousOneIntact) {
  const std::unique_ptr<FederationSession> session =
      FederationSession::from_spec(small_spec());
  const std::string checkpoint = temp_path("keep.sfcg");
  const std::string snapshot = temp_path("keep.sfsn");
  save_checkpoint(session->algorithm(), checkpoint);
  session->save(snapshot);
  const Bytes checkpoint_before = slurp(checkpoint);
  const Bytes snapshot_before = slurp(snapshot);
  ASSERT_FALSE(checkpoint_before.empty());

  // The writer's temp file cannot be created, and the state has moved on.
  std::filesystem::create_directory(checkpoint + ".tmp");
  std::filesystem::create_directory(snapshot + ".tmp");
  session->advance_round(nullptr);
  EXPECT_THROW(save_checkpoint(session->algorithm(), checkpoint), CheckError);
  EXPECT_THROW(session->save(snapshot), CheckError);
  EXPECT_EQ(slurp(checkpoint), checkpoint_before);
  EXPECT_EQ(slurp(snapshot), snapshot_before);

  std::filesystem::remove_all(checkpoint + ".tmp");
  std::filesystem::remove_all(snapshot + ".tmp");
  save_checkpoint(session->algorithm(), checkpoint);
  EXPECT_NE(slurp(checkpoint), checkpoint_before);
  EXPECT_FALSE(std::filesystem::exists(checkpoint + ".tmp"));
  std::filesystem::remove(checkpoint);
  std::filesystem::remove(snapshot);
}

TEST(WireHostile, JsonNestingIsBounded) {
  EXPECT_THROW(parse_json(std::string(100000, '[')), CheckError);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW(parse_json(objects), CheckError);

  const JsonValue deep = parse_json(std::string(200, '[') + std::string(200, ']'));
  const JsonValue* level = &deep;
  int depth = 0;
  while (level->is_array() && !level->array.empty()) {
    level = &level->array[0];
    ++depth;
  }
  EXPECT_EQ(depth, 199);
}

}  // namespace
}  // namespace subfed
