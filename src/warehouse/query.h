// Filtered counting and grouping over warehoused observations — the
// engine behind `tlsharm query`. Filters compose conjunctively; group-by
// output is sorted by key so every report is byte-stable regardless of
// segment layout or standard library.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "warehouse/warehouse.h"

namespace tlsharm::warehouse {

// Which secret-bearing field a `has_secret` filter inspects.
enum class SecretKind : std::uint8_t {
  kStek,       // stek_id       (ticket-issuing servers)
  kKex,        // kex_value     ((EC)DHE server value)
  kSessionId,  // session_id
};

std::optional<SecretKind> ParseSecretKind(const std::string& name);
const char* ToString(SecretKind kind);

// Conjunction of optional predicates; an unset field matches everything.
struct ObsFilter {
  int day_min = 0;
  int day_max = 0x7fffffff;
  std::optional<scanner::DomainIndex> domain;
  std::optional<scanner::ProbeFailure> failure;
  std::optional<SecretKind> has_secret;  // field != kNoSecret

  bool Matches(const scanner::StoredObservation& stored) const;
};

// Group-by dimensions. Keys are the raw numeric values; the CLI renders
// failure classes and suites symbolically.
enum class GroupKey : std::uint8_t {
  kDay,
  kFailure,
  kSuite,
  kDomain,
  kKexGroup,
};

std::optional<GroupKey> ParseGroupKey(const std::string& name);
const char* ToString(GroupKey key);

struct GroupCount {
  std::uint64_t key = 0;
  std::uint64_t count = 0;
};

// Counts observations matching `filter`. Day-range filters prune whole
// segments before any disk read. False + `error` on corruption.
bool CountObservations(const Warehouse& warehouse, const ObsFilter& filter,
                       std::uint64_t* count, std::string* error);

// Counts matching observations per `key` value, sorted by key ascending.
bool GroupCountObservations(const Warehouse& warehouse,
                            const ObsFilter& filter, GroupKey key,
                            std::vector<GroupCount>* out, std::string* error);

}  // namespace tlsharm::warehouse
