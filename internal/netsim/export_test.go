package netsim

// Accessors only this package's tests read.

// Busy reports whether a transfer is in flight.
func (l *Link) Busy() bool { return l.busy }

// QueueLen returns the number of queued (not yet started) transfers.
func (l *Link) QueueLen() int { return len(l.queue) - l.qHead }

// SendResult is Send with an error-aware completion callback.
func (l *Link) SendResult(url string, bytes int, done func(error)) error {
	return l.enqueue(url, bytes, true, done)
}
