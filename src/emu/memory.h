// r2r::emu — guest physical/virtual memory (flat region model).
//
// Regions never overlap; accesses are permission-checked and throw
// Error{kMemory} on violation, which the machine converts into a crash
// outcome (the fault-campaign "crash" classification).
//
// The memory additionally supports page-granular copy-on-write snapshots
// (the substrate of the sim:: fault-simulation engine): capture() copies
// only pages written since the previous capture/restore and shares the
// rest, restore() rewrites only pages that differ from the target
// snapshot, and equals() compares mostly by page identity. Writes maintain
// a per-page dirty bit and a list of dirtied pages to make all three
// operations cheap on the hot path: restoring the snapshot the memory is
// synced to (the one it last captured or restored) costs O(pages written
// since), not O(pages mapped).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "elf/image.h"

namespace r2r::emu {

enum class Access : std::uint8_t { kRead, kWrite, kExecute };

class Memory {
 public:
  static constexpr std::uint64_t kPageSize = 4096;

  /// Immutable page content shared between snapshots of the same lineage.
  /// The last page of a region may be shorter than kPageSize.
  using Page = std::vector<std::uint8_t>;

  /// Page-granular copy-on-write snapshot of the full address space.
  /// Snapshots are value types: cheap to copy (shared pages), safe to
  /// share across threads (pages are immutable once captured).
  struct Snapshot {
    struct RegionState {
      std::uint64_t base = 0;
      std::uint64_t size = 0;
      std::vector<std::shared_ptr<const Page>> pages;
    };
    std::vector<RegionState> regions;
    /// Process-unique identity assigned by capture(); copies share it, as
    /// they share its content. 0 (never assigned) always restores by full
    /// scan.
    std::uint64_t id = 0;
  };

  /// Maps a zero-initialized region; `initial` (if any) seeds the prefix.
  void map(std::string name, std::uint64_t base, std::uint64_t size, std::uint32_t perms,
           std::span<const std::uint8_t> initial = {});

  /// Maps every segment of an ELF image.
  void map_image(const elf::Image& image);

  [[nodiscard]] bool is_mapped(std::uint64_t address, std::uint64_t size) const noexcept;

  std::uint64_t read(std::uint64_t address, unsigned bytes, Access access = Access::kRead);
  void write(std::uint64_t address, std::uint64_t value, unsigned bytes);

  /// Copies up to `out.size()` bytes starting at `address` with execute
  /// permission; returns bytes copied (may be short at region end).
  std::size_t fetch(std::uint64_t address, std::span<std::uint8_t> out);

  /// Bulk read without permission checks (host-side inspection).
  std::vector<std::uint8_t> read_block(std::uint64_t address, std::size_t size) const;
  /// Bulk write without permission checks (host-side setup).
  void write_block(std::uint64_t address, std::span<const std::uint8_t> data);

  /// Captures the current contents. Pages untouched since the last
  /// capture/restore are shared with that sync point instead of copied.
  Snapshot capture();

  /// Rewrites the address space to match `snapshot`, copying only pages
  /// that can differ (dirty since the last sync, or synced to different
  /// page content). When `snapshot` is the one this memory is synced to,
  /// every clean page already holds its content and only the pages written
  /// since are visited; any other snapshot takes a scan of every page.
  /// The region layout must match the one the snapshot was captured from;
  /// throws Error{kInvalidArgument} otherwise.
  void restore(const Snapshot& snapshot);

  /// True when guest-visible memory is byte-identical to `snapshot`.
  /// Clean pages synced to the same page object compare by identity;
  /// only dirty or divergent pages are memcmp'd.
  [[nodiscard]] bool equals(const Snapshot& snapshot) const noexcept;

  // --- code-write tracking (pull model, consumed by emu::BlockCache) --------
  // When enabled, every store that lands in an executable region bumps an
  // epoch counter and logs the written [begin, end) range. The cache polls
  // the epoch on its hot path (one integer compare) and drains the range
  // log only when it moved. restore() counts as a write for every
  // executable page it actually rewrites.

  void set_code_write_tracking(bool enabled) noexcept;
  [[nodiscard]] bool code_write_tracking() const noexcept { return track_code_writes_; }

  /// Monotonic counter, bumped once per tracked write batch. Never resets.
  [[nodiscard]] std::uint64_t code_write_epoch() const noexcept { return code_write_epoch_; }

  struct CodeWrites {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;  ///< [begin, end)
    /// Set when the log spilled past its bound: the consumer must treat
    /// every code byte as potentially rewritten.
    bool overflow = false;
  };

  /// Returns and clears the accumulated write log.
  CodeWrites take_code_writes();

 private:
  struct Region {
    std::string name;
    std::uint64_t base = 0;
    std::uint32_t perms = 0;
    std::vector<std::uint8_t> bytes;
    /// Per-page: written since the last capture()/restore() sync point.
    std::vector<bool> dirty;
    /// The pages whose dirty bit is set, in first-write order. Reserved to
    /// page_count() at map time, so marking a page never allocates.
    std::vector<std::uint32_t> dirty_pages;
    /// Per-page: the page content this page matched at the last sync point
    /// (null before the first snapshot operation).
    std::vector<std::shared_ptr<const Page>> synced;

    [[nodiscard]] bool contains(std::uint64_t address, std::uint64_t size) const noexcept {
      return address >= base && address + size <= base + bytes.size() &&
             address + size >= address;
    }
    [[nodiscard]] std::size_t page_count() const noexcept {
      return (bytes.size() + kPageSize - 1) / kPageSize;
    }
    void mark_dirty(std::size_t offset, std::size_t length) noexcept {
      const std::size_t first = offset / kPageSize;
      const std::size_t last = (offset + length - 1) / kPageSize;
      for (std::size_t page = first; page <= last; ++page) {
        if (dirty[page]) continue;
        dirty[page] = true;
        dirty_pages.push_back(static_cast<std::uint32_t>(page));
      }
    }
  };

  Region* region_for(std::uint64_t address, std::uint64_t size) noexcept;
  const Region* region_for(std::uint64_t address, std::uint64_t size) const noexcept;
  void note_code_write(std::uint64_t begin, std::uint64_t end);
  /// Copies `content` over `page` of `region` and makes it that page's
  /// sync point.
  void rewrite_page(Region& region, std::size_t page,
                    const std::shared_ptr<const Page>& content);

  /// Range-log bound: past this the log degrades to a full-flush flag.
  /// Self-modifying guests are rare; a tiny log keeps the common case cheap.
  static constexpr std::size_t kMaxCodeWriteRanges = 64;

  std::vector<Region> regions_;
  /// Snapshot::id of the last capture()/restore(); 0 when none or when the
  /// layout changed since.
  std::uint64_t synced_id_ = 0;
  bool track_code_writes_ = false;
  std::uint64_t code_write_epoch_ = 0;
  CodeWrites code_writes_;
};

}  // namespace r2r::emu
