package ril

// Accessors only this package's tests read.

// Served returns how many requests completed with the given status at the
// daemon (including ones whose response was subsequently lost).
func (r *Interface) Served(s Status) int {
	return r.served[s]
}

// Timeouts returns how many SubmitWithTimeout deadlines expired.
func (r *Interface) Timeouts() int { return r.timeouts }
