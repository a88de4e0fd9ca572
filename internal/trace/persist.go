package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"eabrowse/internal/features"
)

// visitRecord is the on-disk form of a Visit (JSON lines). The field names
// are a stable contract independent of the Go struct.
type visitRecord struct {
	User           int       `json:"user"`
	Session        int       `json:"session"`
	Page           string    `json:"page"`
	Pool           int32     `json:"pool"`
	Features       []float64 `json:"features"`
	ReadingSeconds float64   `json:"readingSeconds"`
	Interested     bool      `json:"interested"`
}

// WriteVisits streams the dataset's visits as JSON lines — the portable form
// of the paper's collected trace (one record per page view). Pool page
// bodies are not persisted; features travel with each visit.
func (d *Dataset) WriteVisits(w io.Writer) error {
	if d == nil || len(d.Visits) == 0 {
		return errors.New("trace: nothing to write")
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, v := range d.Visits {
		rec := visitRecord{
			User:           v.User,
			Session:        v.Session,
			Page:           v.Page,
			Pool:           v.Pool,
			Features:       v.Features.Slice(),
			ReadingSeconds: v.ReadingSeconds,
			Interested:     v.Interested,
		}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("trace: write visit %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadVisits loads visits previously written with WriteVisits.
func ReadVisits(r io.Reader) ([]Visit, error) {
	dec := json.NewDecoder(r)
	var visits []Visit
	for i := 0; ; i++ {
		var rec visitRecord
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("trace: read visit %d: %w", i, err)
		}
		if len(rec.Features) != features.Num {
			return nil, fmt.Errorf("trace: visit %d has %d features, want %d",
				i, len(rec.Features), features.Num)
		}
		if rec.ReadingSeconds <= 0 {
			return nil, fmt.Errorf("trace: visit %d has non-positive reading time", i)
		}
		var vec features.Vector
		copy(vec[:], rec.Features)
		visits = append(visits, Visit{
			User:           rec.User,
			Session:        rec.Session,
			Page:           rec.Page,
			Pool:           rec.Pool,
			Features:       vec,
			ReadingSeconds: rec.ReadingSeconds,
			Interested:     rec.Interested,
		})
	}
	if len(visits) == 0 {
		return nil, errors.New("trace: no visits in input")
	}
	return visits, nil
}
