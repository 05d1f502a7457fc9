package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// The -arms flag is the registry seam of the figure suite: a typo must
// surface as a CLI error that lists the registered names, never as a
// panic inside a half-finished figure.
func TestResolveArmsUnknown(t *testing.T) {
	_, err := experiments.ParseArms("csma,bogus")
	if err == nil {
		t.Fatal("ParseArms accepted an unregistered arm")
	}
	if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error %q does not name the bad arm", err)
	}
	if !strings.Contains(err.Error(), "csma") {
		t.Errorf("error %q does not list the registered arms", err)
	}
}

func TestResolveArmsEmpty(t *testing.T) {
	if _, err := experiments.ParseArms(" , "); err == nil {
		t.Fatal("ParseArms accepted a list with no arms")
	}
}

func TestResolveArmsKeepsOrder(t *testing.T) {
	arms, err := experiments.ParseArms("rtscts, csma ,cs@-82")
	if err != nil {
		t.Fatalf("ParseArms: %v", err)
	}
	want := []experiments.Protocol{"rtscts", "csma", "cs@-82"}
	if len(arms) != len(want) {
		t.Fatalf("ParseArms returned %v, want %v", arms, want)
	}
	for i := range want {
		if arms[i] != want[i] {
			t.Errorf("arm %d = %q, want %q", i, arms[i], want[i])
		}
	}
}
