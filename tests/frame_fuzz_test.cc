// Deterministic mutation fuzzing of the wire decoders: FrameReader, the
// ByteReader subheader cursor and the kSmpi subheader decoder see bytes from
// another process, so they must survive anything. Each frame case builds a
// valid frame stream from a seeded generator, mutates it (bit flips,
// truncation, absurd length fields) and feeds it in random chunk splits.
// Invariants: no crash or sanitizer report, no returned frame longer than
// kMaxFrameBytes, and corrupt() once set stays set with nothing more
// returned. The kSmpi cases mutate encoded smpi payloads the same way and
// check that decode_smpi accepts exactly the payloads whose subheader is
// whole and whose ranks lie inside the World. Runs under ASan+UBSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <iterator>
#include <vector>

#include "net/frame.h"
#include "smpi/world.h"
#include "support/rng.h"

namespace {

using net::Bytes;
using net::Frame;
using net::FrameKind;

constexpr int kCases = 3000;

std::vector<Frame> random_frames(support::XorShift64& rng) {
  std::vector<Frame> frames(1 + rng.next_below(8));
  for (Frame& f : frames) {
    f.kind = FrameKind(rng.next_below(8));
    f.flags = std::uint8_t(rng.next());
    f.a = std::uint16_t(rng.next());
    f.src = std::uint32_t(rng.next());
    f.dst = std::uint32_t(rng.next());
    f.seq = rng.next();
    f.payload.resize(rng.next_below(96));
    for (std::uint8_t& b : f.payload) b = std::uint8_t(rng.next());
  }
  return frames;
}

Bytes encode(const std::vector<Frame>& frames, std::vector<std::size_t>* at) {
  Bytes out;
  for (const Frame& f : frames) {
    if (at != nullptr) at->push_back(out.size());
    net::append_frame(out, f);
  }
  return out;
}

// Overwrites the u32 payload length at byte 24 of the header at header_at.
void put_len(Bytes& stream, std::size_t header_at, std::uint32_t len) {
  for (int i = 0; i < 4; ++i) {
    stream[header_at + 24 + std::size_t(i)] = std::uint8_t(len >> (8 * i));
  }
}

bool same(const Frame& a, const Frame& b) {
  return a.kind == b.kind && a.flags == b.flags && a.a == b.a &&
         a.src == b.src && a.dst == b.dst && a.seq == b.seq &&
         a.payload == b.payload;
}

// Feeds `stream` in random chunks, pulling frames after every chunk, and
// checks the invariants that hold for any input whatsoever.
std::vector<Frame> feed_chunked(net::FrameReader& rd, const Bytes& stream,
                                support::XorShift64& rng) {
  std::vector<Frame> out;
  std::size_t off = 0;
  while (off < stream.size()) {
    const std::size_t left = stream.size() - off;
    const std::size_t n =
        1 + rng.next_below(std::uint32_t(std::min<std::size_t>(left, 200)));
    rd.feed(stream.data() + off, n);
    off += n;
    const bool was_corrupt = rd.corrupt();
    Frame f;
    while (rd.next(&f)) {
      EXPECT_FALSE(was_corrupt) << "a poisoned reader returned a frame";
      EXPECT_LE(f.payload.size(), std::size_t(net::kMaxFrameBytes));
      out.push_back(f);
    }
    if (was_corrupt) {
      EXPECT_TRUE(rd.corrupt()) << "corrupt() unlatched";
    }
  }
  return out;
}

TEST(FrameFuzz, ChunkSplitsReassembleExactly) {
  support::XorShift64 rng(1);
  for (int c = 0; c < kCases; ++c) {
    const std::vector<Frame> frames = random_frames(rng);
    const Bytes stream = encode(frames, nullptr);
    net::FrameReader rd;
    const std::vector<Frame> got = feed_chunked(rd, stream, rng);
    ASSERT_EQ(got.size(), frames.size()) << "case " << c;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(same(got[i], frames[i])) << "case " << c << " frame " << i;
    }
    EXPECT_FALSE(rd.corrupt());
    EXPECT_EQ(rd.buffered(), 0u);
  }
}

TEST(FrameFuzz, TruncatedStreamYieldsOnlyWholeFrames) {
  support::XorShift64 rng(2);
  for (int c = 0; c < kCases; ++c) {
    const std::vector<Frame> frames = random_frames(rng);
    std::vector<std::size_t> at;
    Bytes stream = encode(frames, &at);
    const std::size_t full = stream.size();
    const std::size_t cut = rng.next_below(std::uint32_t(full));
    stream.resize(cut);
    // Frames ending at or before the cut; frame `whole` is the torn one.
    std::size_t whole = 0;
    while ((whole + 1 < at.size() ? at[whole + 1] : full) <= cut) ++whole;
    net::FrameReader rd;
    const std::vector<Frame> got = feed_chunked(rd, stream, rng);
    ASSERT_EQ(got.size(), whole) << "case " << c;
    for (std::size_t i = 0; i < whole; ++i) EXPECT_TRUE(same(got[i], frames[i]));
    EXPECT_FALSE(rd.corrupt());
    EXPECT_EQ(rd.buffered(), cut - at[whole]);
  }
}

TEST(FrameFuzz, AbsurdLengthPoisonsAtThatFrame) {
  support::XorShift64 rng(3);
  for (int c = 0; c < kCases; ++c) {
    const std::vector<Frame> frames = random_frames(rng);
    std::vector<std::size_t> at;
    Bytes stream = encode(frames, &at);
    const std::size_t k = rng.next_below(std::uint32_t(frames.size()));
    const std::uint32_t over = net::kMaxFrameBytes + 1;
    put_len(stream, at[k],
            over + rng.next_below(0xFFFFFFFFu - net::kMaxFrameBytes));
    net::FrameReader rd;
    const std::vector<Frame> got = feed_chunked(rd, stream, rng);
    ASSERT_EQ(got.size(), k) << "case " << c;
    EXPECT_TRUE(rd.corrupt());
    // Poisoned for good: more bytes, even a valid frame, change nothing.
    const Bytes more = encode({frames[0]}, nullptr);
    rd.feed(more.data(), more.size());
    Frame f;
    EXPECT_FALSE(rd.next(&f));
    EXPECT_TRUE(rd.corrupt());
  }
}

TEST(FrameFuzz, BitFlipsNeverCrashOrOverread) {
  support::XorShift64 rng(4);
  for (int c = 0; c < kCases; ++c) {
    const std::vector<Frame> frames = random_frames(rng);
    Bytes stream = encode(frames, nullptr);
    const std::uint32_t flips = 1 + rng.next_below(8);
    for (std::uint32_t i = 0; i < flips; ++i) {
      const std::size_t byte = rng.next_below(std::uint32_t(stream.size()));
      stream[byte] ^= std::uint8_t(1u << rng.next_below(8));
    }
    if (rng.next_below(4) == 0) {
      stream.resize(rng.next_below(std::uint32_t(stream.size())));
    }
    net::FrameReader rd;
    const std::vector<Frame> got = feed_chunked(rd, stream, rng);
    // Nothing decoded from bytes that were never fed.
    std::size_t decoded = 0;
    for (const Frame& f : got) decoded += net::kHeaderBytes + f.payload.size();
    EXPECT_LE(decoded + rd.buffered(), stream.size()) << "case " << c;
    // Every decoded subheader stays inside its payload.
    for (const Frame& f : got) {
      net::ByteReader br(f.payload);
      std::uint64_t v64;
      std::uint32_t v32;
      std::int32_t i32;
      bool ok = true;
      while (ok) {
        switch (rng.next_below(3)) {
          case 0: ok = br.u64(&v64); break;
          case 1: ok = br.u32(&v32); break;
          default: ok = br.i32(&i32); break;
        }
        EXPECT_LE(br.off, f.payload.size());
      }
    }
  }
}

// --- kSmpi subheader -------------------------------------------------------

constexpr int kWorld = 4;

smpi::Envelope random_envelope(support::XorShift64& rng) {
  smpi::Envelope e;
  e.source = int(rng.next_below(kWorld));
  e.tag = int(std::uint32_t(rng.next()));
  e.context = std::uint32_t(rng.next());
  e.payload.resize(rng.next_below(64));
  for (std::uint8_t& b : e.payload) b = std::uint8_t(rng.next());
  return e;
}

std::int32_t le_i32(const Bytes& b, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= std::uint32_t(b[at + std::size_t(i)]) << (8 * i);
  }
  return std::int32_t(v);
}

// The decoder's contract, read straight off the bytes: the subheader is
// whole and dst (byte 0) and source (byte 4) name ranks of the World.
bool acceptable(const Bytes& b) {
  if (b.size() < smpi::kSmpiSubheaderBytes) return false;
  const std::int32_t dst = le_i32(b, 0), source = le_i32(b, 4);
  return dst >= 0 && dst < kWorld && source >= 0 && source < kWorld;
}

TEST(SmpiSubheaderFuzz, ValidPayloadsRoundtrip) {
  support::XorShift64 rng(5);
  for (int c = 0; c < kCases; ++c) {
    const smpi::Envelope e = random_envelope(rng);
    const int dst = int(rng.next_below(kWorld));
    const std::uint64_t ts = rng.next();
    Bytes b;
    smpi::encode_smpi(b, dst, e, ts);
    ASSERT_EQ(b.size(), smpi::kSmpiSubheaderBytes + e.payload.size());
    int got_dst = -1;
    smpi::Envelope got;
    ASSERT_TRUE(smpi::decode_smpi(std::move(b), kWorld, &got_dst, &got));
    EXPECT_EQ(got_dst, dst);
    EXPECT_EQ(got.source, e.source);
    EXPECT_EQ(got.tag, e.tag);
    EXPECT_EQ(got.context, e.context);
    EXPECT_EQ(got.ts_inject, ts);
    EXPECT_EQ(got.payload, e.payload);
  }
}

TEST(SmpiSubheaderFuzz, TruncationRejectsOnlyATornSubheader) {
  support::XorShift64 rng(6);
  for (int c = 0; c < kCases; ++c) {
    const smpi::Envelope e = random_envelope(rng);
    Bytes b;
    smpi::encode_smpi(b, int(rng.next_below(kWorld)), e, rng.next());
    const std::size_t cut = rng.next_below(std::uint32_t(b.size() + 1));
    b.resize(cut);
    int dst = -1;
    smpi::Envelope got;
    const bool ok = smpi::decode_smpi(std::move(b), kWorld, &dst, &got);
    ASSERT_EQ(ok, cut >= smpi::kSmpiSubheaderBytes) << "case " << c;
    if (ok) {
      EXPECT_EQ(got.payload.size(), cut - smpi::kSmpiSubheaderBytes);
      EXPECT_TRUE(std::equal(got.payload.begin(), got.payload.end(),
                             e.payload.begin()));
    }
  }
}

TEST(SmpiSubheaderFuzz, BitFlipsAcceptExactlyInRangeRanks) {
  support::XorShift64 rng(7);
  int accepted = 0;
  for (int c = 0; c < kCases; ++c) {
    const smpi::Envelope e = random_envelope(rng);
    Bytes b;
    smpi::encode_smpi(b, int(rng.next_below(kWorld)), e, rng.next());
    const std::uint32_t flips = 1 + rng.next_below(4);
    for (std::uint32_t i = 0; i < flips; ++i) {
      // Aim most flips at the subheader, where the ranks live.
      const std::size_t span =
          rng.next_below(4) == 0 ? b.size() : smpi::kSmpiSubheaderBytes;
      b[rng.next_below(std::uint32_t(span))] ^=
          std::uint8_t(1u << rng.next_below(8));
    }
    if (rng.next_below(4) == 0) {
      b.resize(rng.next_below(std::uint32_t(b.size())));
    }
    const bool expect = acceptable(b);
    const std::size_t len = b.size();
    int dst = -1;
    smpi::Envelope got;
    const bool ok = smpi::decode_smpi(std::move(b), kWorld, &dst, &got);
    ASSERT_EQ(ok, expect) << "case " << c;
    if (ok) {
      ++accepted;
      EXPECT_GE(dst, 0);
      EXPECT_LT(dst, kWorld);
      EXPECT_GE(got.source, 0);
      EXPECT_LT(got.source, kWorld);
      EXPECT_EQ(got.payload.size(), len - smpi::kSmpiSubheaderBytes);
    }
  }
  // Flips outside the rank fields leave a valid payload: both verdicts ran.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kCases);
}

TEST(SmpiSubheaderFuzz, OutOfRangeRanksAreRejected) {
  support::XorShift64 rng(8);
  const int bad[] = {-1, kWorld, kWorld + 1, INT_MIN, INT_MAX};
  for (int c = 0; c < kCases; ++c) {
    smpi::Envelope e = random_envelope(rng);
    int dst = int(rng.next_below(kWorld));
    const int v = rng.next_below(2) == 0
                      ? bad[rng.next_below(std::uint32_t(std::size(bad)))]
                      : int(std::uint32_t(rng.next()) | 0x80000000u);
    if (rng.next_below(2) == 0) {
      dst = v;
    } else {
      e.source = v;
    }
    Bytes b;
    smpi::encode_smpi(b, dst, e, rng.next());
    int got_dst = -1;
    smpi::Envelope got;
    EXPECT_FALSE(smpi::decode_smpi(std::move(b), kWorld, &got_dst, &got))
        << "case " << c;
  }
}

TEST(SmpiSubheaderFuzz, BogusSourceIsDropped) {
  // A peer claiming a source outside the World must not reach
  // Status::source: the frame is dropped, the valid one beside it is not.
  smpi::Envelope e;
  e.tag = 7;
  e.payload = {1, 2, 3};
  for (const int source : {kWorld, -1}) {
    e.source = source;
    Bytes b;
    smpi::encode_smpi(b, 1, e, 0);
    int dst = -1;
    smpi::Envelope got;
    EXPECT_FALSE(smpi::decode_smpi(std::move(b), kWorld, &dst, &got));
  }
  e.source = kWorld - 1;
  Bytes b;
  smpi::encode_smpi(b, 1, e, 0);
  int dst = -1;
  smpi::Envelope got;
  ASSERT_TRUE(smpi::decode_smpi(std::move(b), kWorld, &dst, &got));
  EXPECT_EQ(dst, 1);
  EXPECT_EQ(got.source, kWorld - 1);
  EXPECT_EQ(got.payload, (std::vector<std::uint8_t>{1, 2, 3}));
}

}  // namespace
