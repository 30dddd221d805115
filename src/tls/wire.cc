#include "tls/wire.h"

#include <algorithm>
#include <cassert>

namespace tlsharm::tls {

void Writer::Grow(std::size_t n) {
  out_.reserve(std::max({kTypicalMessageSize, out_.size() + n,
                         2 * out_.capacity()}));
}

void Writer::WriteVector(ByteView b, int len_width) {
  assert(len_width >= 1 && len_width <= 3);
  const std::uint64_t max = (1ULL << (8 * len_width)) - 1;
  assert(b.size() <= max);
  (void)max;
  Room(static_cast<std::size_t>(len_width) + b.size());
  AppendUint(out_, b.size(), len_width);
  Append(out_, b);
}

void Writer::WriteString(std::string_view s, int len_width) {
  WriteVector(ByteView(reinterpret_cast<const std::uint8_t*>(s.data()),
                       s.size()),
              len_width);
}

std::uint64_t Reader::ReadUint(int width) {
  if (failed_ || off_ + static_cast<std::size_t>(width) > data_.size()) {
    failed_ = true;
    return 0;
  }
  const std::uint64_t v = tlsharm::ReadUint(data_, off_, width);
  off_ += static_cast<std::size_t>(width);
  return v;
}

Bytes Reader::ReadBytes(std::size_t n) {
  if (failed_ || off_ + n > data_.size()) {
    failed_ = true;
    return {};
  }
  Bytes out(data_.begin() + off_, data_.begin() + off_ + n);
  off_ += n;
  return out;
}

Bytes Reader::ReadVector(int len_width) {
  const std::size_t len = static_cast<std::size_t>(ReadUint(len_width));
  return ReadBytes(len);
}

std::string Reader::ReadString(int len_width) {
  return ToString(ReadVector(len_width));
}

Reader Reader::ReadSubReader(int len_width) {
  const std::size_t len = static_cast<std::size_t>(ReadUint(len_width));
  if (failed_ || off_ + len > data_.size()) {
    failed_ = true;
    return Reader(ByteView{});
  }
  Reader sub(ByteView(data_.data() + off_, len));
  off_ += len;
  return sub;
}

}  // namespace tlsharm::tls
