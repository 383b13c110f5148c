#include "net/frame.h"

#include <cstring>

namespace net {

void put_u32(Bytes& out, std::uint32_t v) {
  out.push_back(std::uint8_t(v));
  out.push_back(std::uint8_t(v >> 8));
  out.push_back(std::uint8_t(v >> 16));
  out.push_back(std::uint8_t(v >> 24));
}

void put_u64(Bytes& out, std::uint64_t v) {
  put_u32(out, std::uint32_t(v));
  put_u32(out, std::uint32_t(v >> 32));
}

void put_i32(Bytes& out, std::int32_t v) { put_u32(out, std::uint32_t(v)); }

namespace {
std::uint32_t rd_u32(const std::uint8_t* p) {
  return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
         std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}
std::uint64_t rd_u64(const std::uint8_t* p) {
  return std::uint64_t(rd_u32(p)) | std::uint64_t(rd_u32(p + 4)) << 32;
}
void wr_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = std::uint8_t(v);
  p[1] = std::uint8_t(v >> 8);
  p[2] = std::uint8_t(v >> 16);
  p[3] = std::uint8_t(v >> 24);
}
}  // namespace

bool ByteReader::u32(std::uint32_t* v) {
  if (off + 4 > n) return false;
  *v = rd_u32(p + off);
  off += 4;
  return true;
}

bool ByteReader::u64(std::uint64_t* v) {
  if (off + 8 > n) return false;
  *v = rd_u64(p + off);
  off += 8;
  return true;
}

bool ByteReader::i32(std::int32_t* v) {
  std::uint32_t u;
  if (!u32(&u)) return false;
  *v = std::int32_t(u);
  return true;
}

void append_frame(Bytes& out, const Frame& f) {
  const std::size_t at = out.size();
  out.resize(at + kHeaderBytes + f.payload.size());
  std::uint8_t* h = out.data() + at;
  wr_u32(h, kMagic);
  h[4] = std::uint8_t(f.kind);
  h[5] = f.flags;
  h[6] = std::uint8_t(f.a);
  h[7] = std::uint8_t(f.a >> 8);
  wr_u32(h + 8, f.src);
  wr_u32(h + 12, f.dst);
  wr_u32(h + 16, std::uint32_t(f.seq));
  wr_u32(h + 20, std::uint32_t(f.seq >> 32));
  wr_u32(h + 24, std::uint32_t(f.payload.size()));
  if (!f.payload.empty()) {
    std::memcpy(h + kHeaderBytes, f.payload.data(), f.payload.size());
  }
}

void FrameReader::feed(const std::uint8_t* data, std::size_t len) {
  if (corrupt_ || len == 0) return;
  // Compact once the consumed prefix dominates, so a long-lived connection
  // doesn't grow its buffer without bound.
  if (off_ > 4096 && off_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + std::ptrdiff_t(off_));
    off_ = 0;
  }
  buf_.insert(buf_.end(), data, data + len);
}

bool FrameReader::next(Frame* f) {
  if (corrupt_) return false;
  const std::size_t avail = buf_.size() - off_;
  if (avail < kHeaderBytes) return false;
  const std::uint8_t* h = buf_.data() + off_;
  if (rd_u32(h) != kMagic) {
    corrupt_ = true;
    return false;
  }
  const std::uint32_t len = rd_u32(h + 24);
  if (len > kMaxFrameBytes) {
    corrupt_ = true;
    return false;
  }
  if (avail < kHeaderBytes + len) return false;
  f->kind = FrameKind(h[4]);
  f->flags = h[5];
  f->a = std::uint16_t(h[6]) | std::uint16_t(std::uint16_t(h[7]) << 8);
  f->src = rd_u32(h + 8);
  f->dst = rd_u32(h + 12);
  f->seq = rd_u64(h + 16);
  f->payload.assign(h + kHeaderBytes, h + kHeaderBytes + len);
  off_ += kHeaderBytes + len;
  return true;
}

bool Reorderer::push(Frame&& f, std::vector<Frame>* released) {
  if (f.seq < next_) return true;  // already released: a dup, still acked
  if (f.seq == next_) {
    released->push_back(std::move(f));
    ++next_;
    for (auto it = pending_.begin();
         it != pending_.end() && it->first == next_;) {
      released->push_back(std::move(it->second));
      it = pending_.erase(it);
      ++next_;
    }
    return true;
  }
  if (pending_.count(f.seq) != 0) return true;  // dup of a buffered frame
  if (pending_.size() >= cap_) return false;    // gap buffer full: don't ack
  pending_.emplace(f.seq, std::move(f));
  return true;
}

bool SeqTracker::accept(std::uint64_t seq) {
  if (seq < next_) return false;
  if (seq == next_) {
    ++next_;
    for (auto it = above_.begin(); it != above_.end() && *it == next_;) {
      it = above_.erase(it);
      ++next_;
    }
    return true;
  }
  return above_.insert(seq).second;
}

}  // namespace net
