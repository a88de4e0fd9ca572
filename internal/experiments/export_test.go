package experiments

import "eabrowse/internal/obs"

// WithObsRecorder attaches an explicit event recorder (typically from a
// private obs.Collector), so a test can trace a session without touching
// the process-wide collector.
func WithObsRecorder(r *obs.Recorder) SessionOption {
	return func(c *sessionConfig) { c.obsRec = r }
}
