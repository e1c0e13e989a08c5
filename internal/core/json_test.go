package core

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig(4)
	if err := cfg.SetPolicy("FLUSH"); err != nil {
		t.Fatal(err)
	}
	cfg.IQSize = 128
	cfg.Warmup = 12345
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got Config
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.IQSize != 128 || got.Threads != 4 || got.Warmup != 12345 {
		t.Fatalf("fields lost: %+v", got)
	}
	if got.Policy == nil || got.Policy.Name() != "FLUSH" {
		t.Fatal("policy lost in round trip")
	}
	if got.DL1 != cfg.DL1 || got.DTLB != cfg.DTLB {
		t.Fatal("nested memory configuration lost")
	}
	// A round-tripped config must still drive a simulation.
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigJSONPolicyByName(t *testing.T) {
	data, err := json.Marshal(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"Policy":"ICOUNT"`) {
		t.Fatalf("policy not serialized by name: %s", data)
	}
}

func TestConfigJSONUnknownPolicy(t *testing.T) {
	var cfg Config
	err := json.Unmarshal([]byte(`{"Threads":1,"Policy":"NOPE"}`), &cfg)
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestConfigJSONEmptyPolicy(t *testing.T) {
	var cfg Config
	if err := json.Unmarshal([]byte(`{"Threads":2}`), &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != nil {
		t.Fatal("absent policy should stay nil")
	}
	if cfg.Threads != 2 {
		t.Fatal("fields lost")
	}
}

// TestConfigJSONUnknownField: a misspelt field is an error, even when the
// config is nested in a document decoded with plain json.Unmarshal, and a
// partial document patches the config it is decoded onto.
func TestConfigJSONUnknownField(t *testing.T) {
	var doc struct{ Machine Config }
	if err := json.Unmarshal([]byte(`{"Machine":{"IQPartiton":8}}`), &doc); err == nil {
		t.Fatal(`"IQPartiton" accepted; the run would use IQPartition 0`)
	}
	cfg := DefaultConfig(2)
	if err := cfg.SetPolicy("FLUSH"); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"IQSize":48}`), &cfg); err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig(2)
	want.IQSize = 48
	if cfg.Policy == nil || cfg.Policy.Name() != "FLUSH" || cfg.IQSize != 48 || cfg.ROBSize != want.ROBSize || cfg.DL1 != want.DL1 {
		t.Fatalf("patch did not apply onto the config: %+v", cfg)
	}
}
