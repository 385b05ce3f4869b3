// Noise-timeline materialization for hw::Core (see core.hpp).
#include "hw/core.hpp"

namespace xemem::hw {

// Fire due arrivals earliest first; among equal arrival times the one
// drawn earlier (armed_at), then the earlier-added stream, wins.
void Core::fire_noise(sim::TimePoint t) {
  for (;;) {
    auto first = noise_.begin();
    for (auto it = noise_.begin(); it != noise_.end(); ++it) {
      if (it->next_at < first->next_at ||
          (it->next_at == first->next_at && it->armed_at < first->armed_at)) {
        first = it;
      }
    }
    if (first == noise_.end() || first->next_at > t) {
      next_noise_at_ = first == noise_.end() ? kNever : first->next_at;
      return;
    }
    first->arm(begin_irq(first->next_at, first->draw_duration()));
    if (first->next_at == kNever) noise_.erase(first);
  }
}

}  // namespace xemem::hw
