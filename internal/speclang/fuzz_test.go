package speclang

import (
	"os"
	"testing"
)

// FuzzParseFormat: for any source that parses, Format must succeed and its
// text must parse back to a space that formats to the same text, so
// parse → Format → parse reaches a fixpoint after one round.
func FuzzParseFormat(f *testing.F) {
	if src, err := os.ReadFile("../../examples/specfile/space.bst"); err == nil {
		f.Add(string(src))
	}
	for _, src := range []string{
		// Raw non-UTF-8 bytes in strings: Format used to write them as
		// \xHH escapes, which the lexer rejects.
		"A = [\"\xff\"]\n",
		"setting A = \"\xc8\"\n",
		"setting mode = 'a\\'b\\\\c\\n\\t\"'\nx = range(0, 3) if mode == \"a'b\\\\c\\n\\t\\\"\" else [7]\n",
		"setting n = 16\nsetting on = True\n" +
			"a = range(1, n + 1)\n" +
			"b = range(a, 0, -2)\n" +
			"c = union(range(0, 4), difference(range(0, 9), [3, 5]))\n" +
			"d = ([1] if on else range(0, 2)) if a > 3 else [a, -a]\n" +
			"let v = max(a * b, abs(-c), 10 if c > 2 else 0) // 3\n" +
			"constraint hard h: v > n * n and not (a % 2 == 0 or b < 1)\n" +
			"constraint soft s: (a + \\\n  b) != d\n" +
			"constraint correctness k: min(a, b) >= 0  # trailing comment\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		text, err := Format(s)
		if err != nil {
			t.Fatalf("Format of a parsed space failed: %v\nsource:\n%s", err, src)
		}
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("formatted text does not parse: %v\ntext:\n%s", err, text)
		}
		text2, err := Format(again)
		if err != nil {
			t.Fatalf("Format of the re-parsed space failed: %v\ntext:\n%s", err, text)
		}
		if text2 != text {
			t.Fatalf("parse → Format is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", text, text2)
		}
	})
}
