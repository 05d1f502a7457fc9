package mac

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/medium"
	"repro/internal/sim"
)

// fakeArm is a registry-only stand-in; its New is never called in these
// tests (construction is covered end to end by the conformance suite,
// which registers the real protocol packages).
type fakeArm struct {
	name string
	salt uint64
}

func (a fakeArm) Name() string     { return a.name }
func (a fakeArm) Label() string    { return "fake " + a.name }
func (a fakeArm) SeedSalt() uint64 { return a.salt }
func (a fakeArm) New(id int, m *medium.Medium, rng *sim.RNG, opt Options) Node {
	panic("fakeArm.New should not be called")
}

// The mac package itself imports no protocol package, so the registry
// seen by these tests contains exactly what they put in it.

func TestRegisterAndLookup(t *testing.T) {
	Register(fakeArm{name: "zz-test-a", salt: 101})
	Register(fakeArm{name: "zz-test-b", salt: 102})
	a, err := Lookup("zz-test-a")
	if err != nil {
		t.Fatalf("Lookup(zz-test-a): %v", err)
	}
	if a.Name() != "zz-test-a" || a.SeedSalt() != 101 || a.Label() != "fake zz-test-a" {
		t.Fatalf("Lookup returned wrong arm: %+v", a)
	}
	if m := MustLookup("zz-test-b"); m.SeedSalt() != 102 {
		t.Fatalf("MustLookup(zz-test-b).SeedSalt() = %d, want 102", m.SeedSalt())
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register(fakeArm{name: "zz-dup"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(fakeArm{name: "zz-dup"})
}

func TestRegisterEmptyNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty-name Register did not panic")
		}
	}()
	Register(fakeArm{name: ""})
}

func TestLookupUnknownListsChoices(t *testing.T) {
	Register(fakeArm{name: "zz-known"})
	_, err := Lookup("zz-definitely-not-registered")
	if err == nil {
		t.Fatal("Lookup of unknown arm succeeded")
	}
	if !strings.Contains(err.Error(), "zz-definitely-not-registered") {
		t.Errorf("error %q does not name the unknown arm", err)
	}
	if !strings.Contains(err.Error(), "zz-known") {
		t.Errorf("error %q does not list the known arms", err)
	}
}

func TestMustLookupUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup of unknown arm did not panic")
		}
	}()
	MustLookup("zz-missing")
}

func TestFamilyLookupParsesAndCaches(t *testing.T) {
	parses := 0
	RegisterFamily("zzfam@", "zzfam@<n>", func(name string) (Arm, error) {
		parses++
		spec := strings.TrimPrefix(name, "zzfam@")
		n, err := strconv.Atoi(spec)
		if err != nil {
			return nil, fmt.Errorf("zzfam arm %q: %v", name, err)
		}
		return fakeArm{name: name, salt: uint64(1000 + n)}, nil
	})

	a, err := Lookup("zzfam@7")
	if err != nil {
		t.Fatalf("family Lookup: %v", err)
	}
	if a.SeedSalt() != 1007 {
		t.Fatalf("family arm salt = %d, want 1007", a.SeedSalt())
	}
	b, err := Lookup("zzfam@7")
	if err != nil {
		t.Fatalf("second family Lookup: %v", err)
	}
	if parses != 1 {
		t.Errorf("parse ran %d times for the same name, want 1 (memoized)", parses)
	}
	if a != b {
		t.Error("family lookups of the same name returned different instances")
	}

	if _, err := Lookup("zzfam@notanumber"); err == nil {
		t.Error("malformed family member did not error")
	} else if !strings.Contains(err.Error(), "zzfam@notanumber") {
		t.Errorf("family parse error %q does not name the bad member", err)
	}
}

func TestRegisterFamilyDuplicatePrefixPanics(t *testing.T) {
	RegisterFamily("zzdupfam@", "zzdupfam@<n>", func(name string) (Arm, error) {
		return fakeArm{name: name}, nil
	})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate RegisterFamily did not panic")
		}
	}()
	RegisterFamily("zzdupfam@", "zzdupfam@<n>", func(name string) (Arm, error) {
		return fakeArm{name: name}, nil
	})
}

func TestRegisterFamilyEmptyPrefixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty-prefix RegisterFamily did not panic")
		}
	}()
	RegisterFamily("", "", nil)
}

func TestNamesSortedWithFamilyHints(t *testing.T) {
	Register(fakeArm{name: "zz-names-b"})
	Register(fakeArm{name: "zz-names-a"})
	RegisterFamily("zznames@", "zznames@<n>", func(name string) (Arm, error) {
		return fakeArm{name: name}, nil
	})
	names := Names()

	ia, ib := -1, -1
	hint := -1
	fixedEnd := 0
	for i, n := range names {
		switch n {
		case "zz-names-a":
			ia = i
		case "zz-names-b":
			ib = i
		case "zznames@<n>":
			hint = i
		}
		if !strings.Contains(n, "<") {
			fixedEnd = i
		}
	}
	if ia == -1 || ib == -1 {
		t.Fatalf("Names() = %v missing registered arms", names)
	}
	if ia > ib {
		t.Errorf("Names() not sorted: zz-names-a at %d after zz-names-b at %d", ia, ib)
	}
	if hint == -1 {
		t.Fatalf("Names() = %v missing family hint", names)
	}
	if hint < fixedEnd {
		t.Errorf("family hint at %d precedes fixed name at %d; hints must trail", hint, fixedEnd)
	}
}
