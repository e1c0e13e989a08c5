package core

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Config serializes to JSON with the fetch policy carried by name
// (policies are identified behaviourally by name; DG/PDG thresholds
// round-trip through their defaults). cmd/smtsim's -config flag, campaign
// specs' machine overrides and matrix machine patches use this.

// MarshalJSON implements json.Marshaler.
func (c Config) MarshalJSON() ([]byte, error) {
	type plain Config // strips methods, breaking the recursion
	name := ""
	if c.Policy != nil {
		name = c.Policy.Name()
	}
	cc := c
	cc.Policy = nil
	// The outer Policy field shadows the embedded interface field at a
	// shallower depth, so encoding/json uses the string.
	return json.Marshal(struct {
		plain
		Policy string
	}{plain(cc), name})
}

// UnmarshalJSON implements json.Unmarshaler, resolving the policy by
// name. Decoding is strict: an unknown field (a misspelt "IQPartiton")
// is an error rather than a silently defaulted setting, whatever decoder
// the caller used. Fields absent from data keep their current values, so
// decoding onto a DefaultConfig applies data as a patch; an absent or
// empty policy name leaves the policy as it was (nil on a zero Config).
func (c *Config) UnmarshalJSON(data []byte) error {
	type plain Config
	aux := struct {
		*plain
		Policy string
	}{plain: (*plain)(c)}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&aux); err != nil {
		return fmt.Errorf("core: config: %w", err)
	}
	if aux.Policy != "" {
		if err := c.SetPolicy(aux.Policy); err != nil {
			return fmt.Errorf("core: config: %w", err)
		}
	}
	return nil
}
