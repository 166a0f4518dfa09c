#include "emu/memory.h"

#include <algorithm>
#include <atomic>

#include "support/error.h"
#include "support/strings.h"

namespace r2r::emu {

namespace {
using support::check;
using support::fail;
using support::ErrorKind;

/// Source of Snapshot::id. Process-wide, so a snapshot captured on one
/// machine never shares an id with another machine's capture.
std::atomic<std::uint64_t> next_snapshot_id{1};

std::uint32_t required_perm(Access access) noexcept {
  switch (access) {
    case Access::kRead: return elf::kRead;
    case Access::kWrite: return elf::kWrite;
    case Access::kExecute: return elf::kExecute;
  }
  return 0;
}
}  // namespace

void Memory::map(std::string name, std::uint64_t base, std::uint64_t size,
                 std::uint32_t perms, std::span<const std::uint8_t> initial) {
  check(size > 0, ErrorKind::kInvalidArgument, "empty mapping");
  check(initial.size() <= size, ErrorKind::kInvalidArgument, "initial data exceeds size");
  for (const Region& region : regions_) {
    const bool disjoint = base + size <= region.base || region.base + region.bytes.size() <= base;
    if (!disjoint) {
      fail(ErrorKind::kInvalidArgument,
           "mapping '" + name + "' overlaps '" + region.name + "'");
    }
  }
  Region region;
  region.name = std::move(name);
  region.base = base;
  region.perms = perms;
  region.bytes.assign(size, 0);
  std::copy(initial.begin(), initial.end(), region.bytes.begin());
  region.dirty.assign(region.page_count(), false);
  region.dirty_pages.reserve(region.page_count());
  region.synced.assign(region.page_count(), nullptr);
  regions_.push_back(std::move(region));
  synced_id_ = 0;
}

void Memory::map_image(const elf::Image& image) {
  for (const auto& segment : image.segments) {
    if (segment.size_in_memory() == 0) continue;
    map(segment.name, segment.vaddr, segment.size_in_memory(), segment.flags,
        segment.data);
  }
}

bool Memory::is_mapped(std::uint64_t address, std::uint64_t size) const noexcept {
  return region_for(address, size) != nullptr;
}

Memory::Region* Memory::region_for(std::uint64_t address, std::uint64_t size) noexcept {
  for (Region& region : regions_) {
    if (region.contains(address, size)) return &region;
  }
  return nullptr;
}

const Memory::Region* Memory::region_for(std::uint64_t address,
                                         std::uint64_t size) const noexcept {
  for (const Region& region : regions_) {
    if (region.contains(address, size)) return &region;
  }
  return nullptr;
}

std::uint64_t Memory::read(std::uint64_t address, unsigned bytes, Access access) {
  const Region* region = region_for(address, bytes);
  if (region == nullptr) {
    fail(ErrorKind::kMemory, "unmapped read at " + support::hex_string(address));
  }
  if ((region->perms & required_perm(access)) == 0) {
    fail(ErrorKind::kMemory,
         "permission violation reading " + support::hex_string(address));
  }
  std::uint64_t value = 0;
  const std::size_t offset = address - region->base;
  for (unsigned i = 0; i < bytes; ++i) {
    value |= static_cast<std::uint64_t>(region->bytes[offset + i]) << (8 * i);
  }
  return value;
}

void Memory::write(std::uint64_t address, std::uint64_t value, unsigned bytes) {
  Region* region = region_for(address, bytes);
  if (region == nullptr) {
    fail(ErrorKind::kMemory, "unmapped write at " + support::hex_string(address));
  }
  if ((region->perms & elf::kWrite) == 0) {
    fail(ErrorKind::kMemory,
         "permission violation writing " + support::hex_string(address));
  }
  const std::size_t offset = address - region->base;
  region->mark_dirty(offset, bytes);
  for (unsigned i = 0; i < bytes; ++i) {
    region->bytes[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  if (track_code_writes_ && (region->perms & elf::kExecute) != 0) {
    note_code_write(address, address + bytes);
  }
}

std::size_t Memory::fetch(std::uint64_t address, std::span<std::uint8_t> out) {
  const Region* region = region_for(address, 1);
  if (region == nullptr) {
    fail(ErrorKind::kMemory, "unmapped fetch at " + support::hex_string(address));
  }
  if ((region->perms & elf::kExecute) == 0) {
    fail(ErrorKind::kMemory,
         "fetch from non-executable memory at " + support::hex_string(address));
  }
  const std::size_t offset = address - region->base;
  const std::size_t available = region->bytes.size() - offset;
  const std::size_t count = available < out.size() ? available : out.size();
  std::copy_n(region->bytes.begin() + static_cast<std::ptrdiff_t>(offset), count,
              out.begin());
  return count;
}

std::vector<std::uint8_t> Memory::read_block(std::uint64_t address, std::size_t size) const {
  const Region* region = region_for(address, size);
  if (region == nullptr) {
    support::fail(ErrorKind::kMemory,
                  "unmapped block read at " + support::hex_string(address));
  }
  const std::size_t offset = address - region->base;
  return {region->bytes.begin() + static_cast<std::ptrdiff_t>(offset),
          region->bytes.begin() + static_cast<std::ptrdiff_t>(offset + size)};
}

void Memory::write_block(std::uint64_t address, std::span<const std::uint8_t> data) {
  Region* region = region_for(address, data.size());
  if (region == nullptr) {
    support::fail(ErrorKind::kMemory,
                  "unmapped block write at " + support::hex_string(address));
  }
  if (!data.empty()) region->mark_dirty(address - region->base, data.size());
  std::copy(data.begin(), data.end(),
            region->bytes.begin() + static_cast<std::ptrdiff_t>(address - region->base));
  if (track_code_writes_ && !data.empty() && (region->perms & elf::kExecute) != 0) {
    note_code_write(address, address + data.size());
  }
}

Memory::Snapshot Memory::capture() {
  Snapshot snapshot;
  snapshot.regions.reserve(regions_.size());
  for (Region& region : regions_) {
    Snapshot::RegionState state;
    state.base = region.base;
    state.size = region.bytes.size();
    const std::size_t pages = region.page_count();
    state.pages.reserve(pages);
    for (std::size_t page = 0; page < pages; ++page) {
      if (!region.dirty[page] && region.synced[page] != nullptr) {
        state.pages.push_back(region.synced[page]);
        continue;
      }
      const std::size_t offset = page * kPageSize;
      const std::size_t length =
          std::min<std::size_t>(kPageSize, region.bytes.size() - offset);
      auto copy = std::make_shared<Page>(
          region.bytes.begin() + static_cast<std::ptrdiff_t>(offset),
          region.bytes.begin() + static_cast<std::ptrdiff_t>(offset + length));
      region.synced[page] = copy;
      region.dirty[page] = false;
      state.pages.push_back(std::move(copy));
    }
    region.dirty_pages.clear();
    snapshot.regions.push_back(std::move(state));
  }
  snapshot.id = next_snapshot_id.fetch_add(1, std::memory_order_relaxed);
  synced_id_ = snapshot.id;
  return snapshot;
}

void Memory::restore(const Snapshot& snapshot) {
  check(snapshot.regions.size() == regions_.size(), ErrorKind::kInvalidArgument,
        "snapshot region count does not match this address space");
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    const Snapshot::RegionState& state = snapshot.regions[i];
    if (state.base != regions_[i].base || state.size != regions_[i].bytes.size()) {
      fail(ErrorKind::kInvalidArgument,
           "snapshot region layout does not match '" + regions_[i].name + "'");
    }
  }
  const bool same_snapshot = snapshot.id != 0 && snapshot.id == synced_id_;
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    Region& region = regions_[i];
    const Snapshot::RegionState& state = snapshot.regions[i];
    if (same_snapshot) {
      // Synced to this snapshot: every clean page already holds its
      // content. Ascending order logs code writes as the full scan would.
      std::sort(region.dirty_pages.begin(), region.dirty_pages.end());
      for (const std::uint32_t page : region.dirty_pages) {
        rewrite_page(region, page, state.pages[page]);
      }
    } else {
      for (std::size_t page = 0; page < state.pages.size(); ++page) {
        if (!region.dirty[page] && region.synced[page] == state.pages[page]) continue;
        rewrite_page(region, page, state.pages[page]);
      }
    }
    region.dirty_pages.clear();
  }
  synced_id_ = snapshot.id;
}

void Memory::rewrite_page(Region& region, std::size_t page,
                          const std::shared_ptr<const Page>& content) {
  std::copy(content->begin(), content->end(),
            region.bytes.begin() + static_cast<std::ptrdiff_t>(page * kPageSize));
  // On the fast path the page is already synced to `content`; skipping the
  // self-assignment leaves the shared page's atomic refcount alone.
  if (region.synced[page] != content) region.synced[page] = content;
  region.dirty[page] = false;
  if (track_code_writes_ && (region.perms & elf::kExecute) != 0) {
    const std::uint64_t begin = region.base + page * kPageSize;
    note_code_write(begin, begin + content->size());
  }
}

void Memory::set_code_write_tracking(bool enabled) noexcept {
  track_code_writes_ = enabled;
  if (!enabled) {
    code_writes_.ranges.clear();
    code_writes_.overflow = false;
  }
}

void Memory::note_code_write(std::uint64_t begin, std::uint64_t end) {
  ++code_write_epoch_;
  if (code_writes_.overflow) return;
  if (code_writes_.ranges.size() >= kMaxCodeWriteRanges) {
    code_writes_.ranges.clear();
    code_writes_.overflow = true;
    return;
  }
  code_writes_.ranges.emplace_back(begin, end);
}

Memory::CodeWrites Memory::take_code_writes() {
  CodeWrites taken = std::move(code_writes_);
  code_writes_.ranges.clear();
  code_writes_.overflow = false;
  return taken;
}

bool Memory::equals(const Snapshot& snapshot) const noexcept {
  if (snapshot.regions.size() != regions_.size()) return false;
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    const Region& region = regions_[i];
    const Snapshot::RegionState& state = snapshot.regions[i];
    if (state.base != region.base || state.size != region.bytes.size()) return false;
    for (std::size_t page = 0; page < state.pages.size(); ++page) {
      if (!region.dirty[page] && region.synced[page] == state.pages[page]) continue;
      const Page& content = *state.pages[page];
      if (!std::equal(content.begin(), content.end(),
                      region.bytes.begin() +
                          static_cast<std::ptrdiff_t>(page * kPageSize))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace r2r::emu
