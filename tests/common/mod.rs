//! Helpers shared by the integration suites.

use xmlpul::prelude::*;

/// Sends `puls` through `queue` in chunks of `batch` with
/// [`IngestQueue::enqueue_all`], waiting for each chunk's tickets before
/// sending the next: nothing else is queued when a chunk lands, so every
/// chunk drains as exactly one batch. Returns the tickets in order.
pub fn enqueue_in_batches<B: IngestBackend>(
    queue: &IngestQueue<B>,
    puls: &[Pul],
    batch: usize,
) -> Vec<Ticket> {
    let mut tickets = Vec::with_capacity(puls.len());
    for chunk in puls.chunks(batch) {
        let sent = queue.enqueue_all(chunk.iter().cloned()).expect("queue open");
        for ticket in &sent {
            let _ = ticket.wait();
        }
        tickets.extend(sent);
    }
    tickets
}
