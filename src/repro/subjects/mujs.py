"""Subject ``mujs`` — a tiny script-expression interpreter lookalike.

Tokenizes a calculator-ish expression language and evaluates it on a small
operand stack.  Defects: an operand-stack underflow reachable only through
a specific operator sequence within one evaluation pass (path-dependent), a
string-escape overflow, and an exponentiation shift trap.
"""

from repro.subjects.base import Subject, make_bug

SOURCE = """\
fn push(stack, sp, value) {
    stack[sp] = value;
    return sp + 1;
}

fn eval_ops(input, pos, n, stack) {
    var sp = 0;
    var dups = 0;
    while (pos < n) {
        var c = input[pos];
        pos = pos + 1;
        if (c >= '0') {
            if (c <= '9') {
                sp = push(stack, sp, c - '0');
                if (sp > 15) { return 0 - 1; }
                continue;
            }
        }
        if (c == '+') {
            // BUG: pops two unconditionally; 'swap-then-add' with one
            // operand underflows only after a preceding 'd' (dup) branch
            // primed dups without pushing.
            var a = stack[sp - 1];
            var b = stack[sp - 2];
            sp = push(stack, sp - 2, a + b);
            continue;
        }
        if (c == 'd') {
            if (sp > 0) {
                sp = push(stack, sp, stack[sp - 1]);
            } else {
                dups = dups + 1;
            }
            continue;
        }
        if (c == 's') {
            if (sp >= 2) {
                var t = stack[sp - 1];
                stack[sp - 1] = stack[sp - 2];
                stack[sp - 2] = t;
            } else {
                sp = sp - dups;            // BUG: dups>0 drives sp negative
                if (sp < 0) {
                    var x = stack[sp + 1]; // underflow read
                    return x;
                }
            }
            continue;
        }
        if (c == '^') {
            if (sp >= 2) {
                var base = stack[sp - 2];
                var exp = stack[sp - 1];
                sp = sp - 2;
                sp = push(stack, sp, base << exp);  // BUG: exp unchecked
            }
            continue;
        }
        if (c == ';') { break; }
    }
    if (sp > 0) { return stack[sp - 1]; }
    return 0;
}

fn parse_string(input, pos, n, out) {
    var outpos = 0;
    while (pos < n) {
        var c = input[pos];
        pos = pos + 1;
        if (c == '"') { return pos; }
        if (c == 92) {
            if (pos < n) {
                out[outpos] = input[pos];  // BUG: outpos vs 16, escapes
                pos = pos + 1;
                outpos = outpos + 1;
            }
            continue;
        }
        outpos = outpos + 1;
        if (outpos > 15) { outpos = 15; }
    }
    return 0 - 1;
}

fn main(input) {
    var n = len(input);
    if (n < 2) { return 0; }
    var stack = alloc(16);
    var strbuf = alloc(16);
    var pos = 0;
    var total = 0;
    while (pos < n) {
        var c = input[pos];
        if (c == '"') {
            var next = parse_string(input, pos + 1, n, strbuf);
            if (next < 0) { break; }
            pos = next;
            continue;
        }
        total = total + eval_ops(input, pos, n, stack);
        while (pos < n) {
            if (input[pos] == ';') { break; }
            pos = pos + 1;
        }
        pos = pos + 1;
    }
    return total;
}
"""

SEEDS = [
    b"12+3+;45s+;",
    b'"abc\\ndef" 7d+;',
    b"3 4 ^ 2 + ; 9 s d ;",
]

TOKENS = [b"+;", b'"', b"\\", b"d", b"s", b"^"]


def build():
    # 'd' on empty stack primes dups, then 's' with sp<2 drives sp negative.
    underflow = b"dds;"
    # '+' with empty stack reads stack[-1] directly.
    plus_underflow = b"+;"
    # '+' with a single operand passes the first pop, underflows the second.
    plus_single = b"1+;"
    # Escape-heavy string: each escape writes out[outpos] without a cap.
    escape = b'"' + b"\\a" * 20 + b'"'
    # 9 << 70: two digits push 7 and 0... craft exp 9: "29^": 2<<9 fine;
    # need exp > 63: push digits then dup-add to grow: simplest is shifting
    # twice: "39^9^" -> (3<<9)=1536... exp still <=9; grow via '+':
    # "99+9+9+9+9+9+9+9+" builds 81; then "2 81 ^" -> but operands are
    # single digits.  "99+" = 18; chain +: 9*8=72 via "99+9+9+9+9+9+9+9+".
    shift = b"99+9+9+9+9+9+9+9+2s^;"
    # Found by an opp campaign: more pending operands than stack slots.
    deep_push = bytes.fromhex(
        "f082cc802f1940600064ff00102f194000ff64fffa0000fa196421332a2264800064ff"
        "0010f033e6977ae02ebd196420332a64ff0000102f02006421332a2264800064ff0010"
        "5e33196420332a64ff0000102f020033196420332a3b6480000b7300ff585e6446"
    )
    return Subject(
        name="mujs",
        source=SOURCE,
        seeds=SEEDS,
        bugs=[
            make_bug(
                "eval_ops", 44, "heap-buffer-overflow-read",
                "swap after primed dup counter drives the stack pointer "
                "negative (operator-sequence path combination)",
                underflow, difficulty="path-dependent",
            ),
            make_bug(
                "eval_ops", 23, "heap-buffer-overflow-read",
                "binary '+' pops without an arity check (empty stack)",
                plus_underflow, difficulty="shallow",
            ),
            make_bug(
                "eval_ops", 24, "heap-buffer-overflow-read",
                "binary '+' pops without an arity check (single operand "
                "reaches the second pop)",
                plus_single, difficulty="shallow",
            ),
            make_bug(
                "parse_string", 73, "heap-buffer-overflow-write",
                "escape sequences bypass the output-length clamp",
                escape, difficulty="medium",
            ),
            make_bug(
                "eval_ops", 55, "shift-out-of-range",
                "exponent operand used directly as a shift amount",
                shift, difficulty="deep",
            ),
            make_bug(
                "push", 2, "heap-buffer-overflow-write",
                "push writes past the 16-slot operand stack",
                deep_push, difficulty="medium",
            ),
        ],
        tokens=TOKENS,
        max_input_len=128,
        exec_instr_budget=30_000,
        description="expression tokenizer + operand-stack evaluator",
    )
