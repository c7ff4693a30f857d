#include "storage/column.h"

namespace vmsv {

StatusOr<std::unique_ptr<PhysicalColumn>> PhysicalColumn::Create(
    uint64_t num_rows) {
  if (num_rows == 0) return InvalidArgument("column needs >= 1 row");
  const uint64_t pages = (num_rows + kValuesPerPage - 1) / kValuesPerPage;
  auto file_r = PhysicalMemoryFile::Create(pages);
  if (!file_r.ok()) return file_r.status();
  auto file = std::make_shared<PhysicalMemoryFile>(std::move(file_r).ValueOrDie());
  auto column = Attach(std::move(file), num_rows);
  if (!column.ok()) return column;
  // The file is zeroed, so every page's exact zone is {0, 0}.
  (*column)->zones_.assign(pages, PageZone{0, 0});
  (*column)->loose_.assign(pages, 0);
  return column;
}

StatusOr<std::unique_ptr<PhysicalColumn>> PhysicalColumn::Attach(
    std::shared_ptr<PhysicalMemoryFile> file, uint64_t num_rows) {
  if (file == nullptr) return InvalidArgument("Attach needs a file");
  if (num_rows == 0) return InvalidArgument("column needs >= 1 row");
  const uint64_t pages = (num_rows + kValuesPerPage - 1) / kValuesPerPage;
  if (file->num_pages() != pages) {
    return FailedPrecondition(
        "file holds " + std::to_string(file->num_pages()) + " pages, " +
        std::to_string(num_rows) + " rows need " + std::to_string(pages));
  }
  auto arena_r = VirtualArena::Create(file, pages);
  if (!arena_r.ok()) return arena_r.status();
  auto arena = std::move(arena_r).ValueOrDie();
  // Identity-map the whole file in one coalesced call: the base full view.
  Status st = arena->MapRange(/*slot_start=*/0, /*file_page_start=*/0, pages);
  if (!st.ok()) return st;
  return std::unique_ptr<PhysicalColumn>(
      new PhysicalColumn(std::move(file), std::move(arena), num_rows));
}

std::vector<uint64_t> PhysicalColumn::LoosePages() const {
  std::vector<uint64_t> pages;
  for (uint64_t page = 0; page < loose_.size(); ++page) {
    if (loose_[page] != 0) pages.push_back(page);
  }
  return pages;
}

}  // namespace vmsv
