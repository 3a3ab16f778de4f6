package dataplane

import (
	"strings"
	"testing"
)

// TestSpecRoundTrip pins the canonical form: parse → String → parse is
// the identity, and String of a parsed canonical line is that line.
func TestSpecRoundTrip(t *testing.T) {
	canonical := []string{
		"allow tcp 10.0.0.0/8 -> any4 dport 53 prio 10",
		"deny udp 2001:db8::/32 -> 2001:db8:9::/48 sport 1000-2000 vlan 100-200",
		"allow any any4 -> 192.168.0.0/16",
		"deny icmp any6 -> any6 prio -3",
		"allow 47 10.1.2.3/32 -> 10.0.0.0/8",
		"allow 6-17 any4 -> any4 sport 0-1023 dport 65535 vlan 7",
		"deny any 2001:db8::1/128 -> any6",
	}
	for _, line := range canonical {
		r, err := ParseRule(line)
		if err != nil {
			t.Fatalf("ParseRule(%q): %v", line, err)
		}
		if got := r.String(); got != line {
			t.Errorf("String() = %q, want %q", got, line)
		}
		r2, err := ParseRule(r.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", r.String(), err)
		}
		if r2 != r {
			t.Errorf("round-trip changed rule: %+v vs %+v", r, r2)
		}
	}
}

func TestSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"permit tcp any4 -> any4",               // unknown action
		"allow tcp any4 any4",                   // missing ->
		"allow tcp any4 -> any6",                // mixed families
		"allow tcp 10.0.0.0/33 -> any4",         // bits out of range
		"allow tcp any4 -> any4 sport 9-2",      // inverted range
		"allow tcp any4 -> any4 vlan 5000",      // beyond MaxVLAN
		"allow 300 any4 -> any4",                // proto beyond 255
		"allow tcp any4 -> any4 sport",          // clause without value
		"allow tcp any4 -> any4 ttl 3",          // unknown clause
		"allow tcp ::ffff:10.0.0.0/104 -> any4", // mapped literal
	}
	for _, line := range bad {
		if _, err := ParseRule(line); err == nil {
			t.Errorf("ParseRule(%q) accepted", line)
		}
	}
}

func TestParseRules(t *testing.T) {
	rules, err := ParseRules(`
		# policy
		allow tcp 10.0.0.0/8 -> any4 dport 80

		deny any any4 -> any4 prio -1
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules, want 2", len(rules))
	}
	if _, err := ParseRules("allow tcp any4 -> any4\nbogus\n"); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Errorf("bad line not located: %v", err)
	}
}
