package cluster

import (
	"slices"
	"testing"
	"time"
)

func TestRecorderMigrationKinds(t *testing.T) {
	r := NewRecorder(30 * time.Minute)
	r.Migration(time.Minute, MigrationLow)
	r.Migration(time.Minute, MigrationLow)
	r.Migration(2*time.Minute, MigrationHigh)
	if r.MigrationCount(MigrationLow) != 2 || r.MigrationCount(MigrationHigh) != 1 {
		t.Fatalf("counts = %d/%d", r.MigrationCount(MigrationLow), r.MigrationCount(MigrationHigh))
	}
	if r.MigrationCount("nope") != 0 {
		t.Fatal("unknown kind nonzero")
	}
}

func TestRecorderConcurrency(t *testing.T) {
	r := NewRecorder(30 * time.Minute)
	if r.MaxConcurrentMigrations() != 0 || r.MeanConcurrentMigrations() != 0 {
		t.Fatal("empty recorder should report zero concurrency")
	}
	// Round at t=5m: 3 migrations; round at t=10m: 1 migration.
	r.Migration(5*time.Minute, MigrationLow)
	r.Migration(5*time.Minute, MigrationHigh)
	r.Migration(5*time.Minute, MigrationLow)
	r.Migration(10*time.Minute, MigrationLow)
	if got := r.MaxConcurrentMigrations(); got != 3 {
		t.Fatalf("max concurrent = %d, want 3", got)
	}
	if got := r.MeanConcurrentMigrations(); got != 2 {
		t.Fatalf("mean concurrent = %v, want 2", got)
	}
}

func TestRecorderEmptySeries(t *testing.T) {
	r := NewRecorder(30 * time.Minute)
	s := r.MigrationSeries(MigrationLow, 2*time.Hour)
	if s.Len() != 5 {
		t.Fatalf("empty series length = %d, want 5 zero buckets", s.Len())
	}
	if slices.Max(s.V) != 0 {
		t.Fatal("empty series not all-zero")
	}
	if r.MaxMigrationsPerHour() != 0 {
		t.Fatal("empty recorder has nonzero peak rate")
	}
}
