// /proc/self/maps parsing (paper §2.5): the kernel's page table is the
// source of truth for which file page backs which virtual slot, so a DBMS
// can recover view→page mappings by parsing the maps file instead of
// maintaining a user-space mirror. BuildArenaBimap turns the parsed entries
// into a slot↔page bimap for one arena; update alignment can run off either
// this or the arena's own table (MappingSource in core/update_applier.h).

#ifndef VMSV_REWIRING_MAPS_PARSER_H_
#define VMSV_REWIRING_MAPS_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rewiring/virtual_arena.h"
#include "util/status.h"

namespace vmsv {

/// One line of /proc/self/maps.
struct MapsEntry {
  uint64_t start = 0;       // inclusive virtual start address
  uint64_t end = 0;         // exclusive virtual end address
  bool readable = false;    // r
  bool writable = false;    // w
  bool executable = false;  // x
  bool shared = false;      // s (vs p = private/COW)
  uint64_t offset = 0;      // file offset in bytes
  uint64_t inode = 0;
  std::string device;       // "fd:01"
  std::string pathname;     // may be empty (anonymous)

  uint64_t num_pages() const { return (end - start) / kPageSize; }
};

/// Parses maps-format text. Blank lines are skipped; a malformed line makes
/// the whole parse fail (the kernel never emits one, so it signals a bug).
StatusOr<std::vector<MapsEntry>> ParseMapsText(std::string_view text);

/// Reads and parses /proc/self/maps.
StatusOr<std::vector<MapsEntry>> ParseSelfMaps();

/// Bidirectional slot↔file-page mapping recovered for one arena.
class PageBimap {
 public:
  void Insert(uint64_t slot, uint64_t page) {
    slot_to_page_[slot] = page;
    page_to_slot_[page] = slot;
  }

  /// Returns the file page mapped at `slot`, or -1.
  int64_t PageOfSlot(uint64_t slot) const {
    auto it = slot_to_page_.find(slot);
    return it == slot_to_page_.end() ? -1 : static_cast<int64_t>(it->second);
  }

  /// Returns the slot a file page is mapped into, or -1.
  int64_t SlotOfPage(uint64_t page) const {
    auto it = page_to_slot_.find(page);
    return it == page_to_slot_.end() ? -1 : static_cast<int64_t>(it->second);
  }

  bool ContainsPage(uint64_t page) const {
    return page_to_slot_.count(page) != 0;
  }

  size_t size() const { return slot_to_page_.size(); }

 private:
  std::unordered_map<uint64_t, uint64_t> slot_to_page_;
  std::unordered_map<uint64_t, uint64_t> page_to_slot_;
};

/// Selects the entries lying inside `arena`'s reservation that map shared
/// file pages, and expands them page-wise into a bimap. Entries produced by
/// coalesced MapRange calls span several pages and contribute one bimap
/// record per page.
PageBimap BuildArenaBimap(const std::vector<MapsEntry>& entries,
                          const VirtualArena& arena);

/// Counts maps entries that fall inside the arena reservation and are backed
/// by the memory file (i.e. actual rewired ranges, not the reservation).
uint64_t CountArenaFileMappings(const std::vector<MapsEntry>& entries,
                                const VirtualArena& arena);

/// Live VMA count of the whole process (the quantity vm.max_map_count
/// bounds): one entry per /proc/self/maps line. 0 when the maps file cannot
/// be read (non-Linux). Fragmented view pools drive this up — benches emit
/// it so mapping-budget pressure is observable, not inferred.
uint64_t CountProcessVmas();

}  // namespace vmsv

#endif  // VMSV_REWIRING_MAPS_PARSER_H_
