// TLS-style wire encoding: big-endian integers and length-prefixed vectors
// with 1-, 2- or 3-byte length fields. The Reader latches failure instead of
// throwing so message parsers can decode a full struct and check once.
#pragma once

#include <cstdint>
#include <string>

#include "util/bytes.h"

namespace tlsharm::tls {

class Writer {
 public:
  void WriteUint(std::uint64_t v, int width) {
    Room(static_cast<std::size_t>(width));
    AppendUint(out_, v, width);
  }
  void WriteBytes(ByteView b) {
    Room(b.size());
    Append(out_, b);
  }
  // Length-prefixed vector with a `len_width`-byte length field.
  void WriteVector(ByteView b, int len_width);
  void WriteString(std::string_view s, int len_width);

  const Bytes& Result() const& { return out_; }
  Bytes&& Result() && { return std::move(out_); }

 private:
  // Room for a typical handshake message, taken at the first write, so a
  // serializer does not grow its buffer a byte at a time; a writer that
  // never writes allocates nothing.
  static constexpr std::size_t kTypicalMessageSize = 128;

  void Room(std::size_t n) {
    if (out_.capacity() - out_.size() < n) Grow(n);
  }
  void Grow(std::size_t n);

  Bytes out_;
};

class Reader {
 public:
  explicit Reader(ByteView data) : data_(data) {}
  // A Reader only views its input; constructing one over a temporary
  // buffer leaves it dangling after the full expression. Reject that
  // pattern at compile time.
  explicit Reader(Bytes&&) = delete;

  std::uint64_t ReadUint(int width);
  Bytes ReadBytes(std::size_t n);
  Bytes ReadVector(int len_width);
  std::string ReadString(int len_width);

  // Reads a sub-reader over a length-prefixed region.
  Reader ReadSubReader(int len_width);

  bool Failed() const { return failed_; }
  bool AtEnd() const { return failed_ || off_ == data_.size(); }
  std::size_t Remaining() const {
    return failed_ ? 0 : data_.size() - off_;
  }
  void MarkFailed() { failed_ = true; }

 private:
  ByteView data_;
  std::size_t off_ = 0;
  bool failed_ = false;
};

}  // namespace tlsharm::tls
