#include "tls/ticket.h"

#include <cstdlib>

#include "crypto/aes128.h"
#include "crypto/hmac.h"
#include "crypto/tuning.h"
#include "tls/wire.h"

namespace tlsharm::tls {
namespace {

constexpr std::size_t kIvSize = 16;
constexpr std::size_t kMacSize = 32;

// SChannel-like wrapper magic (stands in for the ASN.1 header of the DPAPI
// object the paper parsed).
constexpr std::uint8_t kSChannelMagic[4] = {0x30, 0x82, 0x53, 0x43};
constexpr std::size_t kGuidSize = 16;

// Seal/Open crypto, routed through the STEK's cached schedules when present.
// Reference mode (and hand-built Steks without caches) re-expands the key
// material per call; both paths produce identical bytes.

Bytes MacOver(const Stek& stek, ByteView header_and_ct) {
  if (stek.mac && !crypto::ReferenceCryptoEnabled()) {
    const crypto::Sha256Digest d = stek.mac->Mac({header_and_ct});
    return Bytes(d.begin(), d.end());
  }
  return crypto::HmacSha256Bytes(stek.mac_key, header_and_ct);
}

Bytes CbcEncrypt(const Stek& stek, const crypto::AesBlock& iv, ByteView pt) {
  if (stek.aes && !crypto::ReferenceCryptoEnabled()) {
    return crypto::Aes128CbcEncrypt(*stek.aes, iv, pt);
  }
  return crypto::Aes128CbcEncrypt(crypto::ToAesKey(stek.aes_key), iv, pt);
}

std::optional<Bytes> CbcDecrypt(const Stek& stek, const crypto::AesBlock& iv,
                                ByteView ct) {
  if (stek.aes && !crypto::ReferenceCryptoEnabled()) {
    return crypto::Aes128CbcDecrypt(*stek.aes, iv, ct);
  }
  return crypto::Aes128CbcDecrypt(crypto::ToAesKey(stek.aes_key), iv, ct);
}

// ---------------------------------------------------------------------------
// RFC 5077 recommended layout, parameterized by key-name width so the
// mbedTLS variant can share the construction.

Bytes SealRfc(const Stek& stek, const TicketState& state, crypto::Drbg& drbg,
              std::size_t key_name_size, bool mbedtls_len_field) {
  Bytes out = stek.key_name;
  out.resize(key_name_size);  // defensive: exact width on the wire
  const Bytes iv = drbg.Generate(kIvSize);
  Append(out, iv);
  const Bytes ct =
      CbcEncrypt(stek, crypto::ToAesBlock(iv), state.Serialize());
  if (mbedtls_len_field) AppendUint(out, ct.size(), 2);
  Append(out, ct);
  Append(out, MacOver(stek, out));
  return out;
}

std::optional<TicketState> OpenRfc(const Stek& stek, ByteView ticket,
                                   std::size_t key_name_size,
                                   bool mbedtls_len_field) {
  const std::size_t header = key_name_size + kIvSize +
                             (mbedtls_len_field ? 2 : 0);
  if (ticket.size() < header + kMacSize + crypto::kAesBlockSize) {
    return std::nullopt;
  }
  if (!ConstantTimeEqual(ByteView(ticket.data(), key_name_size),
                         ByteView(stek.key_name.data(), key_name_size))) {
    return std::nullopt;
  }
  const std::size_t body_len = ticket.size() - kMacSize;
  if (!ConstantTimeEqual(ByteView(ticket.data() + body_len, kMacSize),
                         MacOver(stek, ByteView(ticket.data(), body_len)))) {
    return std::nullopt;
  }
  const ByteView iv(ticket.data() + key_name_size, kIvSize);
  const ByteView ct(ticket.data() + header, body_len - header);
  if (mbedtls_len_field) {
    const std::uint64_t declared =
        ReadUint(ticket, key_name_size + kIvSize, 2);
    if (declared != ct.size()) return std::nullopt;
  }
  const auto pt = CbcDecrypt(stek, crypto::ToAesBlock(iv), ct);
  if (!pt) return std::nullopt;
  return TicketState::Parse(*pt);
}

class Rfc5077CodecImpl final : public TicketCodec {
 public:
  std::string_view Name() const override { return "rfc5077"; }
  std::size_t KeyNameSize() const override { return 16; }
  Bytes Seal(const Stek& stek, const TicketState& state,
             crypto::Drbg& drbg) const override {
    return SealRfc(stek, state, drbg, 16, false);
  }
  std::optional<TicketState> Open(const Stek& stek,
                                  ByteView ticket) const override {
    return OpenRfc(stek, ticket, 16, false);
  }
  std::optional<Bytes> ExtractStekId(ByteView ticket) const override {
    if (ticket.size() < 16) return std::nullopt;
    return Bytes(ticket.begin(), ticket.begin() + 16);
  }
};

class MbedTlsCodecImpl final : public TicketCodec {
 public:
  std::string_view Name() const override { return "mbedtls"; }
  std::size_t KeyNameSize() const override { return 4; }
  Bytes Seal(const Stek& stek, const TicketState& state,
             crypto::Drbg& drbg) const override {
    return SealRfc(stek, state, drbg, 4, true);
  }
  std::optional<TicketState> Open(const Stek& stek,
                                  ByteView ticket) const override {
    return OpenRfc(stek, ticket, 4, true);
  }
  std::optional<Bytes> ExtractStekId(ByteView ticket) const override {
    if (ticket.size() < 4) return std::nullopt;
    return Bytes(ticket.begin(), ticket.begin() + 4);
  }
};

// SChannel: magic(4) || total_len(2) || version(2)=1 || guid(16) ||
// iv(16) || ct || mac(32). The GUID plays the Master Key GUID role.
class SChannelCodecImpl final : public TicketCodec {
 public:
  std::string_view Name() const override { return "schannel"; }
  std::size_t KeyNameSize() const override { return kGuidSize; }

  Bytes Seal(const Stek& stek, const TicketState& state,
             crypto::Drbg& drbg) const override {
    Bytes out(kSChannelMagic, kSChannelMagic + 4);
    AppendUint(out, 0, 2);  // length placeholder, patched below
    AppendUint(out, 1, 2);  // version
    Bytes guid = stek.key_name;
    guid.resize(kGuidSize);
    Append(out, guid);
    const Bytes iv = drbg.Generate(kIvSize);
    Append(out, iv);
    const Bytes ct =
        CbcEncrypt(stek, crypto::ToAesBlock(iv), state.Serialize());
    Append(out, ct);
    // Patch the total length (including the MAC yet to be appended) before
    // MACing so the MAC covers the final wire bytes.
    const std::size_t total = out.size() + kMacSize;
    out[4] = static_cast<std::uint8_t>(total >> 8);
    out[5] = static_cast<std::uint8_t>(total);
    Append(out, MacOver(stek, out));
    return out;
  }

  std::optional<TicketState> Open(const Stek& stek,
                                  ByteView ticket) const override {
    const auto guid = ExtractStekId(ticket);
    if (!guid) return std::nullopt;
    Bytes expected = stek.key_name;
    expected.resize(kGuidSize);
    if (!ConstantTimeEqual(*guid, expected)) return std::nullopt;
    const std::size_t header = 4 + 2 + 2 + kGuidSize + kIvSize;
    const std::size_t body_len = ticket.size() - kMacSize;
    // MAC covers everything before it, including the patched length field.
    if (!ConstantTimeEqual(ByteView(ticket.data() + body_len, kMacSize),
                           MacOver(stek, ByteView(ticket.data(), body_len)))) {
      return std::nullopt;
    }
    const ByteView iv(ticket.data() + 4 + 2 + 2 + kGuidSize, kIvSize);
    const ByteView ct(ticket.data() + header, body_len - header);
    const auto pt = CbcDecrypt(stek, crypto::ToAesBlock(iv), ct);
    if (!pt) return std::nullopt;
    return TicketState::Parse(*pt);
  }

  std::optional<Bytes> ExtractStekId(ByteView ticket) const override {
    const std::size_t min_size =
        4 + 2 + 2 + kGuidSize + kIvSize + crypto::kAesBlockSize + kMacSize;
    if (ticket.size() < min_size) return std::nullopt;
    for (int i = 0; i < 4; ++i) {
      if (ticket[static_cast<std::size_t>(i)] != kSChannelMagic[i]) {
        return std::nullopt;
      }
    }
    if (ReadUint(ticket, 4, 2) != ticket.size()) return std::nullopt;
    if (ReadUint(ticket, 6, 2) != 1) return std::nullopt;
    return Bytes(ticket.begin() + 8, ticket.begin() + 8 + kGuidSize);
  }
};

}  // namespace

Stek Stek::Generate(crypto::Drbg& drbg, std::size_t key_name_size) {
  Stek stek;
  stek.key_name = drbg.Generate(key_name_size);
  stek.aes_key = drbg.Generate(crypto::kAes128KeySize);
  stek.mac_key = drbg.Generate(32);
  stek.PrecomputeSchedules();
  return stek;
}

void Stek::PrecomputeSchedules() {
  aes = std::make_shared<const crypto::Aes128>(crypto::ToAesKey(aes_key));
  mac = std::make_shared<const crypto::HmacSha256>(mac_key);
}

Bytes TicketState::Serialize() const {
  Writer w;
  w.WriteUint(cipher_suite, 2);
  w.WriteVector(master_secret, 1);
  w.WriteUint(static_cast<std::uint64_t>(issue_time), 8);
  return std::move(w).Result();
}

std::optional<TicketState> TicketState::Parse(ByteView data) {
  Reader r(data);
  TicketState state;
  state.cipher_suite = static_cast<std::uint16_t>(r.ReadUint(2));
  state.master_secret = r.ReadVector(1);
  state.issue_time = static_cast<SimTime>(r.ReadUint(8));
  if (r.Failed() || !r.AtEnd()) return std::nullopt;
  if (state.master_secret.size() != kMasterSecretSize) return std::nullopt;
  return state;
}

const TicketCodec& Rfc5077Codec() {
  static const Rfc5077CodecImpl codec;
  return codec;
}

const TicketCodec& MbedTlsCodec() {
  static const MbedTlsCodecImpl codec;
  return codec;
}

const TicketCodec& SChannelCodec() {
  static const SChannelCodecImpl codec;
  return codec;
}

const TicketCodec& GetTicketCodec(TicketCodecKind kind) {
  switch (kind) {
    case TicketCodecKind::kRfc5077:
      return Rfc5077Codec();
    case TicketCodecKind::kMbedTls:
      return MbedTlsCodec();
    case TicketCodecKind::kSChannel:
      return SChannelCodec();
  }
  std::abort();
}

std::optional<Bytes> ExtractStekIdAuto(ByteView ticket) {
  // Strongly structured layouts first.
  if (auto guid = SChannelCodec().ExtractStekId(ticket); guid) return guid;
  // mbedTLS layout has a self-consistent length field at offset 20.
  const std::size_t mbed_overhead = 4 + 16 + 2 + 32;
  if (ticket.size() >= mbed_overhead + crypto::kAesBlockSize) {
    const std::uint64_t declared = ReadUint(ticket, 4 + 16, 2);
    const std::size_t ct_len = ticket.size() - mbed_overhead;
    if (declared == ct_len && ct_len % crypto::kAesBlockSize == 0) {
      return MbedTlsCodec().ExtractStekId(ticket);
    }
  }
  return Rfc5077Codec().ExtractStekId(ticket);
}

}  // namespace tlsharm::tls
