package checkpoint

import (
	"strings"
	"testing"
)

func TestIdentityEncoding(t *testing.T) {
	type inner struct{ F float64 }
	v := struct {
		B   bool
		S   string
		P   *inner
		Nil *inner
		L   []uint8
	}{true, "a b", &inner{0.25}, nil, []uint8{7}}
	want := `x.B=true x.S="a b" x.P.F=0.25 x.Nil=nil x.L=len:1 x.L[0]=7`
	if got := Identity("x", v); got != want {
		t.Fatalf("Identity = %s\nwant       %s", got, want)
	}
}

func TestIdentityRejectsNonCanonicalKinds(t *testing.T) {
	for name, v := range map[string]any{
		"map":  struct{ M map[int]int }{},
		"func": struct{ F func() }{},
		"chan": struct{ C chan int }{},
		"any":  struct{ I any }{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s field encoded without complaint", name)
				}
			}()
			Identity("", v)
		}()
	}
}

func TestIdentityDiff(t *testing.T) {
	d := IdentityDiff("A=1 B=2 C=3", "A=1 B=5 C=3 D=4", 1)
	for _, want := range []string{"- B=2", "+ B=5", "… (1 more)"} {
		if !strings.Contains(d, want) {
			t.Errorf("diff lacks %q:\n%s", want, d)
		}
	}
	if strings.Contains(d, "A=1") {
		t.Errorf("diff lists a shared token:\n%s", d)
	}
}
