#include "scanner/runlog.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/crc32.h"
#include "util/durable.h"

namespace tlsharm::scanner {
namespace {

enum RecordType : std::uint8_t {
  kRecConfig = 1,
  kRecDayStarted = 2,
  kRecDayCommitted = 3,
};

void AppendRecord(Bytes& out, std::uint8_t type, const Bytes& body) {
  const std::size_t start = out.size();
  out.push_back(type);
  AppendVarint(out, body.size());
  out.insert(out.end(), body.begin(), body.end());
  const std::uint32_t crc =
      Crc32(ByteView(out.data() + start, out.size() - start));
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(crc >> shift));
  }
}

bool ReadWholeFile(const std::string& path, Bytes* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream content;
  content << in.rdbuf();
  const std::string data = content.str();
  out->assign(data.begin(), data.end());
  return true;
}

// Campaigns are bounded; a journal claiming a 100k-day study is corrupt.
constexpr std::uint64_t kMaxDays = 100000;

// Bounds-checked big-endian read that advances `off` (util's ReadUint is
// precondition-based and stationary).
bool ReadBE(ByteView b, std::size_t& off, int width, std::uint64_t& out) {
  if (b.size() - off < static_cast<std::size_t>(width)) return false;
  out = ReadUint(b, off, width);
  off += static_cast<std::size_t>(width);
  return true;
}

bool ReadBE32(ByteView b, std::size_t& off, std::uint32_t& out) {
  std::uint64_t v = 0;
  if (!ReadBE(b, off, 4, v)) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

}  // namespace

Bytes EncodeRunLog(const RunLogContents& contents) {
  Bytes out;
  out.insert(out.end(), kRunLogMagic, kRunLogMagic + 4);
  out.push_back(kRunLogVersion);
  {
    Bytes body;
    AppendUint(body, contents.config_digest, 8);
    AppendVarint(body, static_cast<std::uint64_t>(contents.days));
    AppendRecord(out, kRecConfig, body);
  }
  for (const RunLogDay& day : contents.committed) {
    {
      Bytes body;
      AppendVarint(body, static_cast<std::uint64_t>(day.day));
      AppendRecord(out, kRecDayStarted, body);
    }
    Bytes body;
    AppendVarint(body, static_cast<std::uint64_t>(day.day));
    AppendVarint(body, day.digests.warehouse_rows);
    AppendVarint(body, day.digests.warehouse_segments);
    AppendUint(body, day.digests.manifest_crc, 4);
    AppendVarint(body, day.digests.state_bytes);
    AppendUint(body, day.digests.state_crc, 4);
    AppendUint(body, day.digests.tape_manifest_crc, 4);
    AppendRecord(out, kRecDayCommitted, body);
  }
  if (contents.started >= 0) {
    Bytes body;
    AppendVarint(body, static_cast<std::uint64_t>(contents.started));
    AppendRecord(out, kRecDayStarted, body);
  }
  return out;
}

bool DecodeRunLog(ByteView bytes, RunLogContents* out, std::string* error) {
  const auto fail = [error](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (bytes.size() < 5) return fail("runlog shorter than header");
  if (!std::equal(kRunLogMagic, kRunLogMagic + 4, bytes.begin())) {
    return fail("bad runlog magic");
  }
  if (bytes[4] != kRunLogVersion) return fail("unsupported runlog version");

  RunLogContents parsed;
  bool have_config = false;
  std::size_t off = 5;
  while (off < bytes.size()) {
    // Each record must decode whole and pass its CRC; anything less is a
    // torn tail — keep the prefix, note the damage, stop.
    const std::size_t rec_start = off;
    std::size_t cur = off;
    const std::uint8_t type = bytes[cur++];
    std::uint64_t len = 0;
    if (!ReadVarint(bytes, cur, len) || bytes.size() - cur < len + 4) {
      parsed.truncated_tail = true;
      break;
    }
    const ByteView body(bytes.data() + cur, static_cast<std::size_t>(len));
    cur += static_cast<std::size_t>(len);
    std::uint32_t stored = 0;
    for (int i = 0; i < 4; ++i) stored = (stored << 8) | bytes[cur + i];
    cur += 4;
    if (Crc32(ByteView(bytes.data() + rec_start, cur - 4 - rec_start)) !=
        stored) {
      parsed.truncated_tail = true;
      break;
    }

    // Record integrity proven; now its structure and placement must hold
    // exactly — a well-formed record in the wrong order is corruption, not
    // a torn write.
    std::size_t boff = 0;
    if (type == kRecConfig) {
      if (have_config) return fail("duplicate config record");
      std::uint64_t digest = 0, days = 0;
      if (!ReadBE(body, boff, 8, digest) || !ReadVarint(body, boff, days) ||
          boff != body.size() || days == 0 || days > kMaxDays) {
        return fail("malformed config record");
      }
      parsed.config_digest = digest;
      parsed.days = static_cast<int>(days);
      have_config = true;
    } else if (type == kRecDayStarted) {
      if (!have_config) return fail("day-started before config");
      if (parsed.started >= 0) return fail("overlapping day-started records");
      std::uint64_t day = 0;
      if (!ReadVarint(body, boff, day) || boff != body.size() ||
          day > kMaxDays) {
        return fail("malformed day-started record");
      }
      if (static_cast<int>(day) != parsed.LastCommitted() + 1) {
        return fail("non-contiguous day-started record");
      }
      parsed.started = static_cast<int>(day);
    } else if (type == kRecDayCommitted) {
      if (!have_config) return fail("day-committed before config");
      std::uint64_t day = 0;
      RunLogDay rec;
      if (!ReadVarint(body, boff, day) ||
          !ReadVarint(body, boff, rec.digests.warehouse_rows) ||
          !ReadVarint(body, boff, rec.digests.warehouse_segments) ||
          !ReadBE32(body, boff, rec.digests.manifest_crc) ||
          !ReadVarint(body, boff, rec.digests.state_bytes) ||
          !ReadBE32(body, boff, rec.digests.state_crc) ||
          !ReadBE32(body, boff, rec.digests.tape_manifest_crc) ||
          boff != body.size() || day > kMaxDays) {
        return fail("malformed day-committed record");
      }
      rec.day = static_cast<int>(day);
      if (parsed.started != rec.day) {
        return fail("day-committed without matching day-started");
      }
      parsed.started = -1;
      parsed.committed.push_back(rec);
    } else {
      return fail("unknown runlog record type");
    }
    off = cur;
  }
  if (!have_config) return fail("runlog missing config record");
  *out = std::move(parsed);
  return true;
}

bool RunLog::Start(const std::string& path, std::uint64_t config_digest,
                   int days, std::string* error) {
  path_ = path;
  contents_ = RunLogContents{};
  contents_.config_digest = config_digest;
  contents_.days = days;
  return Rewrite(error);
}

bool RunLog::Load(const std::string& path, RunLogContents* out,
                  std::string* error) {
  Bytes bytes;
  if (!ReadWholeFile(path, &bytes)) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  if (!DecodeRunLog(bytes, out, error)) {
    if (error != nullptr) *error = path + ": " + *error;
    return false;
  }
  return true;
}

bool RunLog::Reopen(const std::string& path, const RunLogContents& contents,
                    std::string* error) {
  path_ = path;
  contents_ = contents;
  // Canonical form: an in-flight day is re-announced by the resumed run's
  // own DayStarted, and a torn tail must not survive the rewrite.
  contents_.started = -1;
  contents_.truncated_tail = false;
  return Rewrite(error);
}

bool RunLog::DayStarted(int day, std::string* error) {
  if (day != contents_.LastCommitted() + 1 || contents_.started >= 0) {
    if (error != nullptr) {
      *error = "runlog: day-started " + std::to_string(day) +
               " out of sequence";
    }
    return false;
  }
  contents_.started = day;
  return Rewrite(error);
}

bool RunLog::DayCommitted(int day, const DayDigests& digests,
                          std::string* error) {
  if (contents_.started != day) {
    if (error != nullptr) {
      *error = "runlog: day-committed " + std::to_string(day) +
               " without day-started";
    }
    return false;
  }
  contents_.started = -1;
  contents_.committed.push_back(RunLogDay{day, digests});
  return Rewrite(error);
}

bool RunLog::Rewrite(std::string* error) {
  return DurableWriteFile(path_, EncodeRunLog(contents_), error);
}

}  // namespace tlsharm::scanner
