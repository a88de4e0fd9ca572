package capacity

import (
	"errors"
	"fmt"
)

// ErlangB returns the analytic blocking probability of an M/G/N/N loss
// system carrying offered traffic of `erlangs` over n servers, using the
// numerically stable recursive form:
//
//	B(0, A) = 1
//	B(k, A) = A·B(k-1, A) / (k + A·B(k-1, A))
//
// By the Erlang insensitivity property the result depends on the service
// distribution only through its mean, which is what lets this closed form
// validate the discrete-event simulation in Simulate.
func ErlangB(n int, erlangs float64) (float64, error) {
	if n <= 0 {
		return 0, errors.New("capacity: ErlangB needs at least one server")
	}
	if erlangs < 0 {
		return 0, fmt.Errorf("capacity: negative offered load %v", erlangs)
	}
	if erlangs == 0 {
		return 0, nil
	}
	b := 1.0
	for k := 1; k <= n; k++ {
		b = erlangs * b / (float64(k) + erlangs*b)
	}
	return b, nil
}

// OfferedErlangs converts a user population into offered load: each user
// generates one session per MeanSessionInterval holding a channel for
// meanServiceS seconds.
func (c Config) OfferedErlangs(users int, meanServiceS float64) float64 {
	if users <= 0 || meanServiceS <= 0 {
		return 0
	}
	return float64(users) * meanServiceS / c.MeanSessionInterval.Seconds()
}

// AnalyticDropPercent predicts the session-dropping percentage for a user
// population with the given mean service time, via Erlang B.
func (c Config) AnalyticDropPercent(users int, meanServiceS float64) (float64, error) {
	b, err := ErlangB(c.Channels, c.OfferedErlangs(users, meanServiceS))
	if err != nil {
		return 0, err
	}
	return b * 100, nil
}
