#include "crypto/hkdf.h"

#include <cassert>

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace tlsharm::crypto {

Bytes HkdfExtract(ByteView salt, ByteView ikm) {
  const Bytes zero_salt(kSha256DigestSize, 0);
  return HmacSha256Bytes(salt.empty() ? ByteView(zero_salt) : salt, ikm);
}

Bytes HkdfExpand(ByteView prk, ByteView info, std::size_t length) {
  assert(length <= 255 * kSha256DigestSize);
  Bytes out;
  out.reserve(length);
  Bytes t;
  std::uint8_t counter = 1;
  while (out.size() < length) {
    const Sha256Digest digest =
        HmacSha256Mac(prk, Concat({t, info, ByteView(&counter, 1)}));
    t.assign(digest.begin(), digest.end());
    const std::size_t take = std::min(t.size(), length - out.size());
    out.insert(out.end(), t.begin(), t.begin() + take);
    ++counter;
  }
  return out;
}

Bytes HkdfExpandLabel(ByteView secret, std::string_view label,
                      ByteView context, std::size_t length) {
  Bytes info;
  AppendUint(info, length, 2);
  const std::string full_label = "tls13 " + std::string(label);
  AppendUint(info, full_label.size(), 1);
  Append(info, ToBytes(full_label));
  AppendUint(info, context.size(), 1);
  Append(info, context);
  return HkdfExpand(secret, info, length);
}

Bytes DeriveSecret(ByteView secret, std::string_view label,
                   ByteView transcript_hash) {
  return HkdfExpandLabel(secret, label, transcript_hash, kSha256DigestSize);
}

}  // namespace tlsharm::crypto
