package slo

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadRules feeds arbitrary rules.json bytes through LoadRules from a
// file in t.TempDir(). It must never panic, and every rule set it accepts
// must pass Rules.Validate.
func FuzzLoadRules(f *testing.F) {
	for _, seed := range []string{
		`{"window_scale":0.001,"default":{"p99_latency_ms":120,"deadline_hit_ratio":0.95}}`,
		`{"streams":{"s3":{"energy_per_frame_mj":40,"energy_objective":0.9}}}`,
		`{"default":{"p99_latency_ms":0.001},"no_degradation":true}`,
		`{"default":{"max_drop_rate":0.5,"drop_objective":0.99},"min_events":10}`,
		`{"default":{"p99_latency":120}}`,
		`{"default":{"p99_latency_ms":120,"latency_objective":1.0}}`,
		`{"window_scale":-1}`,
		`{"streams":{"":null}}`,
		`null`,
		`{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "rules.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := LoadRules(path)
		if err != nil {
			return
		}
		if r == nil {
			t.Fatal("LoadRules accepted the file but returned no rules")
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("accepted rules fail validation: %v\n%s", err, data)
		}
	})
}
