// Sums and interval deltas of the stack's counter structs. A struct that is
// summed across an array or diffed across an interval holds only uint64_t
// counters and lists them in `static constexpr std::array kCounters`, one
// member pointer per field; `static_assert(ListsEveryCounter<S>())` after
// the struct keeps that table complete as fields are added.
#ifndef XFTL_COMMON_COUNTERS_H_
#define XFTL_COMMON_COUNTERS_H_

#include <cstddef>
#include <cstdint>

namespace xftl {

template <typename S>
using CounterField = uint64_t S::*;

// True when S::kCounters names every field of S exactly once. S holds
// nothing but uint64_t counters, so its size counts its fields.
template <typename S>
consteval bool ListsEveryCounter() {
  const auto& fields = S::kCounters;
  if (sizeof(S) != fields.size() * sizeof(uint64_t)) return false;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (fields[i] == nullptr) return false;
    for (size_t j = i + 1; j < fields.size(); ++j) {
      if (fields[i] == fields[j]) return false;
    }
  }
  return true;
}

// Adds every counter of `from` into `into`: an array-wide view of its
// members' counters.
template <typename S>
void AddCounters(S* into, const S& from) {
  for (CounterField<S> f : S::kCounters) into->*f += from.*f;
}

// The counts accumulated between two reads of one struct: `now` - `base`.
template <typename S>
S CounterDelta(const S& now, const S& base) {
  S d;
  for (CounterField<S> f : S::kCounters) d.*f = now.*f - base.*f;
  return d;
}

}  // namespace xftl

#endif  // XFTL_COMMON_COUNTERS_H_
