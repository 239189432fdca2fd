// Flat arena-allocated object pools for the traffic simulator.
//
// The engine churns through millions of short-lived event and flow records;
// per-object `new` (and the pointer-chasing std::function closures the old
// event loop used) dominate its profile long before the physics do. An
// Arena<T> hands out stable 32-bit indices into block-allocated storage and
// recycles them through an index-linked LIFO free list: alloc and free are
// O(1), nothing ever moves, and a drained simulation leaves its blocks warm
// for the next one. Pools are single-owner by design — each shard owns its
// own pools and no lock is ever taken (see shard.h for the ownership rules).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace hermes::sim {

// Sentinel "no slot" index (the end of the free list).
inline constexpr std::uint32_t kArenaNull = 0xffffffffu;

struct ArenaStats {
    std::size_t live = 0;            // currently allocated slots
    std::size_t peak_live = 0;       // high-water mark of live
    std::uint64_t allocations = 0;   // total alloc() successes
    std::uint64_t reuses = 0;        // allocations served from the free list
    std::size_t capacity = 0;        // slots backed by blocks
    std::size_t blocks = 0;          // blocks allocated
};

template <typename T>
class Arena {
public:
    // `block_size` slots are allocated at a time. T must be
    // default-constructible; slots are reused by assignment, never destroyed
    // until the arena dies.
    explicit Arena(std::size_t block_size = 4096)
        : block_size_(block_size == 0 ? 1 : block_size) {}

    // Returns a slot index, growing the storage by one block when every
    // slot is live.
    [[nodiscard]] std::uint32_t alloc() {
        std::uint32_t idx;
        if (free_head_ != kArenaNull) {
            idx = free_head_;
            free_head_ = next_free_[idx];
            ++stats_.reuses;
        } else {
            if (used_ == stats_.capacity) grow();
            idx = static_cast<std::uint32_t>(used_++);
        }
        ++stats_.allocations;
        if (++stats_.live > stats_.peak_live) stats_.peak_live = stats_.live;
        return idx;
    }

    // Returns `idx` to the free list (LIFO, so reuse is cache-warm).
    void free(std::uint32_t idx) {
        next_free_[idx] = free_head_;
        free_head_ = idx;
        --stats_.live;
    }

    [[nodiscard]] T& operator[](std::uint32_t idx) noexcept {
        return blocks_[idx / block_size_][idx % block_size_];
    }
    [[nodiscard]] const T& operator[](std::uint32_t idx) const noexcept {
        return blocks_[idx / block_size_][idx % block_size_];
    }

    // Forgets every allocation but keeps the blocks — the next simulation
    // reuses the warm storage without touching the heap.
    void reset() noexcept {
        used_ = 0;
        free_head_ = kArenaNull;
        stats_.live = 0;
    }

    [[nodiscard]] const ArenaStats& stats() const noexcept { return stats_; }

private:
    void grow() {
        blocks_.push_back(std::make_unique<T[]>(block_size_));
        stats_.capacity += block_size_;
        next_free_.resize(stats_.capacity, kArenaNull);
        ++stats_.blocks;
    }

    std::size_t block_size_;
    std::size_t used_ = 0;  // slots handed out at least once
    std::uint32_t free_head_ = kArenaNull;
    std::vector<std::unique_ptr<T[]>> blocks_;
    std::vector<std::uint32_t> next_free_;  // per-slot free-list link
    ArenaStats stats_;
};

}  // namespace hermes::sim
