package shard

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"hmpt/internal/faultfs"
	"hmpt/internal/fsatomic"
)

// quarRecord is the terminal state of a cell that exhausted its retry
// budget: the structured partial-failure report the merge surfaces.
type quarRecord struct {
	Schema   string   `json:"schema"`
	Manifest string   `json:"manifest"`
	Cell     int      `json:"cell"`
	Workload string   `json:"workload"`
	Platform string   `json:"platform"`
	Variant  string   `json:"variant"`
	Attempts int      `json:"attempts"`
	Errors   []string `json:"errors"`
}

const quarSchema = "hmpt-quarantine/v1"

// attempts holds the retry policy and the quarantine records. A cell's
// failure history is its failed lease generations.
type attempts struct {
	fs       faultfs.FS
	quarDir  string // <shard-dir>/quarantine
	manifest string
	backoff  time.Duration
	max      int
}

func (a *attempts) quarPath(cell int) string {
	return filepath.Join(a.quarDir, cellName(cell)+".quar")
}

// eligible reports whether the cell may be attempted now: its failed
// attempts are under budget and past the latest backoff.
func (a *attempts) eligible(failed []leaseRecord, now time.Time) bool {
	if len(failed) >= a.max {
		return false // quarantine territory, never eligible
	}
	for _, rec := range failed {
		if now.UnixNano() < rec.NextEligible {
			return false
		}
	}
	return true
}

// delay is the doubling backoff after a failed attempt: attempt n
// (1-based) delays the next try by backoff << (n-1).
func (a *attempts) delay(attempt int) time.Duration {
	d := a.backoff
	for i := 1; i < attempt; i++ {
		d *= 2
	}
	return d
}

// quarantine publishes the cell's terminal quarantine record. Exclusive
// create: the first worker to conclude the budget is exhausted writes
// the report, racers adopt it.
func (a *attempts) quarantine(ref cellRef, failed []leaseRecord) error {
	rec := quarRecord{
		Schema:   quarSchema,
		Manifest: a.manifest,
		Cell:     ref.Index,
		Workload: ref.Workload.Name,
		Platform: ref.Platform.Name,
		Variant:  ref.Variant.Name,
		Attempts: len(failed),
	}
	for _, f := range failed {
		rec.Errors = append(rec.Errors, f.Error)
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	switch err := fsatomic.PublishExclusiveFS(a.fs, a.quarPath(ref.Index), append(raw, '\n')); {
	case err == nil:
		cellsQuarantine.Add(1)
		return nil
	case os.IsExist(err):
		return nil
	default:
		return err
	}
}

// quarantined loads the cell's quarantine record if one exists and is
// valid. Damage reads as not-quarantined: the cell stays retryable.
func (a *attempts) quarantined(cell int) (*quarRecord, bool) {
	raw, err := a.fs.ReadFile(a.quarPath(cell))
	if err != nil {
		return nil, false
	}
	var rec quarRecord
	if json.Unmarshal(raw, &rec) != nil || rec.Schema != quarSchema || rec.Manifest != a.manifest || rec.Cell != cell {
		return nil, false
	}
	return &rec, true
}
