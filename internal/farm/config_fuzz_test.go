package farm

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// postBody submits a raw POST /streams body and returns the status.
func postBody(t *testing.T, h http.Handler, body []byte) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/streams", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// TestFarmAcceptsRetiredKnobs pins the compatibility promise of the JSON
// edge: a body carrying a field the farm no longer knows — here the
// retired kernel_fusion switch — is accepted and the unknown field
// ignored, so older clients keep working.
func TestFarmAcceptsRetiredKnobs(t *testing.T) {
	f := New(Config{})
	defer f.Close()
	body := []byte(`{"id":"legacy","w":40,"h":32,"engine":"neon","frames":2,"kernel_fusion":true}`)
	if code := postBody(t, NewServer(f), body); code != http.StatusCreated {
		t.Fatalf("POST /streams with a retired field: status %d, want %d", code, http.StatusCreated)
	}
	s, ok := f.Get("legacy")
	if !ok {
		t.Fatal("stream not registered")
	}
	<-s.Done()
	if tel := s.Telemetry(); tel.Err != "" || tel.Fused != 2 {
		t.Fatalf("legacy stream: fused %d, err %q", tel.Fused, tel.Err)
	}
}

// FuzzStreamConfig drives arbitrary POST /streams bodies through the
// decoder and Submit's validation. Nothing may panic; a body the decoder
// or validation refuses must draw a 4xx from the handler; and an accepted
// config must survive a JSON round trip unchanged and still validate.
// Accepted configs are not started — validation alone decides admission.
func FuzzStreamConfig(f *testing.F) {
	for _, seed := range []string{
		`{"id":"cam","w":64,"h":48,"seed":9,"engine":"adaptive","frames":6,"queue_cap":6}`,
		`{"w":32,"h":24,"engine":"split-oracle","pipelined":true,"pipeline_depth":4}`,
		`{"engine":"neon","dvfs_policy":"deadline-pace","deadline_ms":30,"rule":"window"}`,
		`{"slo":{"p99_latency_ms":5,"deadline_hit_ratio":0.9},"deadline_ms":10}`,
		`{"w":-1,"h":5}`,
		`{"w":100000,"h":100000}`,
		`{"levels":9,"w":16,"h":16}`,
		`{"pipeline_depth":3}`,
		`{"kernel_workers":-2,"kernel_fusion":true}`,
		`{"frames":5,"start_seq":9}`,
		`{"engine":"gpu"}`,
		`{"w":"x"}`,
		`[]`,
		`{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	fm := New(Config{})
	defer fm.Close()
	h := NewServer(fm)
	f.Fuzz(func(t *testing.T, body []byte) {
		var cfg StreamConfig
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&cfg); err != nil {
			if code := postBody(t, h, body); code != http.StatusBadRequest {
				t.Fatalf("undecodable body %q: status %d, want 400", body, code)
			}
			return
		}
		if _, err := resolveStream(cfg, nil); err != nil {
			if code := postBody(t, h, body); code < 400 || code >= 500 {
				t.Fatalf("invalid config %q (%v): status %d, want 4xx", body, err, code)
			}
			return
		}
		out, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("accepted config does not encode: %v", err)
		}
		var back StreamConfig
		dec := json.NewDecoder(bytes.NewReader(out))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("round trip of %s: %v", out, err)
		}
		if !reflect.DeepEqual(cfg, back) {
			t.Fatalf("round trip changed the config:\n%+v\n%+v", cfg, back)
		}
		if _, err := resolveStream(back, nil); err != nil {
			t.Fatalf("round-tripped config %s no longer validates: %v", out, err)
		}
	})
}
