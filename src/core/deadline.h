// Cooperative cancellation token shared by every interruptible stage.
//
// A Deadline combines an optional wall-clock expiry with an optional shared
// poll budget (which cancel() empties). Copies are cheap and all refer to
// the same cancellation state, so one token can be handed to a
// branch-and-bound worker pool, the simplex pivot loops, and the greedy
// anchor search at once; each of them polls expired() at a coarse
// granularity and unwinds to its best-known-feasible answer instead of
// throwing. A default-constructed Deadline is inactive: expired() is always
// false and the poll costs two branches, so passing one through options
// structs that rarely set it is free.
//
// The re-solve ladder (core/repair.h) is the main consumer: one token
// bounds a whole climb — core::Engine arms it per epoch, the CLI's fault
// replay per event — and a tripped climb serves its truncated greedy
// result, else the still-verifying previous deployment, instead of
// failing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>

namespace hermes::core {

class Deadline {
public:
    using Clock = std::chrono::steady_clock;

    // Inactive token: never expires, cancel() is a no-op.
    Deadline() = default;

    // Expires `seconds` from now; seconds <= 0 yields an already-expired
    // token (useful in tests), non-finite/huge values an inactive one.
    [[nodiscard]] static Deadline after(double seconds) {
        Deadline d;
        if (seconds < 1e17) {
            d.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(seconds));
        }
        return d;
    }

    // Token with a manual trip wire (and optionally a wall-clock expiry on
    // top). Any copy may cancel(); every copy observes it.
    [[nodiscard]] static Deadline cancellable(
        double seconds = std::numeric_limits<double>::infinity()) {
        Deadline d = after(seconds);
        d.polls_left_ = std::make_shared<std::atomic<std::int64_t>>(
            std::numeric_limits<std::int64_t>::max());
        return d;
    }

    // Cancellable token that also expires on its `polls`-th expired() call,
    // counted across every copy: a trip point set by how much work has
    // polled rather than by the clock, so it lands at the same place on any
    // machine (at one thread).
    [[nodiscard]] static Deadline after_polls(std::int64_t polls) {
        Deadline d;
        d.polls_left_ = std::make_shared<std::atomic<std::int64_t>>(polls);
        return d;
    }

    // True when the token can ever expire (time bound or poll budget set up).
    [[nodiscard]] bool active() const noexcept {
        return polls_left_ != nullptr || at_ != Clock::time_point::max();
    }

    [[nodiscard]] bool expired() const noexcept {
        if (polls_left_ &&
            polls_left_->fetch_sub(1, std::memory_order_relaxed) <= 1) {
            return true;
        }
        return at_ != Clock::time_point::max() && Clock::now() >= at_;
    }

    // Seconds until expiry: +inf for inactive tokens, 0 once expired.
    [[nodiscard]] double remaining_seconds() const noexcept {
        if (polls_left_ && polls_left_->load(std::memory_order_relaxed) <= 0) {
            return 0.0;
        }
        if (at_ == Clock::time_point::max()) {
            return std::numeric_limits<double>::infinity();
        }
        const double s = std::chrono::duration<double>(at_ - Clock::now()).count();
        return s > 0.0 ? s : 0.0;
    }

    // Trips a cancellable() or after_polls() token from any thread; no-op on
    // other tokens.
    void cancel() const noexcept {
        if (polls_left_) polls_left_->store(0, std::memory_order_relaxed);
    }

private:
    Clock::time_point at_ = Clock::time_point::max();
    // expired() calls left before the token trips; 0 or less once tripped.
    std::shared_ptr<std::atomic<std::int64_t>> polls_left_;
};

}  // namespace hermes::core
