// Deterministic mutation fuzzing of the wire decoder: FrameReader and the
// ByteReader subheader cursor see bytes from another process, so they must
// survive anything. Each case builds a valid frame stream from a seeded
// generator, mutates it (bit flips, truncation, absurd length fields) and
// feeds it in random chunk splits. Invariants: no crash or sanitizer
// report, no returned frame longer than kMaxFrameBytes, and corrupt() once
// set stays set with nothing more returned. Runs under ASan+UBSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/frame.h"
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

}  // namespace
