"""Subject ``sqlite3`` — a SQL front-end lookalike.

Tokenizes a SQL-ish statement, resolves keywords through a hash-dispatch
table, and evaluates WHERE-clause arithmetic on a toy register machine.
The paper's sqlite3 favours pcguard (9 bugs vs path's 5: deep grammar
corners need throughput); the census places most defects behind multi-
keyword sequences with one path-dependent register-machine defect.
"""

from repro.subjects.base import Subject, make_bug

SOURCE = """\
fn keyword_code(input, pos, n) {
    if (pos + 6 <= n) {
        if (memcmp(input, pos, "SELECT", 0, 6) == 0) { return 1; }
        if (memcmp(input, pos, "INSERT", 0, 6) == 0) { return 2; }
        if (memcmp(input, pos, "DELETE", 0, 6) == 0) { return 3; }
    }
    if (pos + 5 <= n) {
        if (memcmp(input, pos, "WHERE", 0, 5) == 0) { return 4; }
        if (memcmp(input, pos, "LIMIT", 0, 5) == 0) { return 5; }
    }
    if (pos + 4 <= n) {
        if (memcmp(input, pos, "FROM", 0, 4) == 0) { return 6; }
        if (memcmp(input, pos, "JOIN", 0, 4) == 0) { return 7; }
    }
    return 0;
}

fn eval_where(input, pos, n, regs) {
    // Register machine: digits push, '*' multiplies, '%' takes modulo.
    // The modulo path divides by the top of stack — a zero pushed through
    // the '*'-collapse path (two pushes then '*') survives to '%'.
    var sp = 0;
    while (pos < n) {
        var c = input[pos];
        pos = pos + 1;
        if (c >= '0') {
            if (c <= '9') {
                if (sp > 7) { return 0 - 1; }
                regs[sp] = c - '0';
                sp = sp + 1;
                continue;
            }
        }
        if (c == '*') {
            if (sp >= 2) {
                regs[sp - 2] = regs[sp - 2] * regs[sp - 1];
                sp = sp - 1;
            }
            continue;
        }
        if (c == '%') {
            if (sp >= 2) {
                regs[sp - 2] = regs[sp - 2] % regs[sp - 1];  // BUG: top 0
                sp = sp - 1;
            }
            continue;
        }
        if (c == ';') { break; }
        if (c == ' ') { continue; }
        break;
    }
    if (sp > 0) { return regs[sp - 1]; }
    return 0;
}

fn parse_limit(input, pos, n) {
    var value = 0;
    while (pos < n) {
        var c = input[pos];
        if (c < '0') { break; }
        if (c > '9') { break; }
        value = value * 10 + (c - '0');
        pos = pos + 1;
    }
    var pages = alloc(32);
    var slot = value / 8;
    pages[slot] = 1;                        // BUG: limit >= 256
    return value;
}

fn parse_join(input, pos, n, tables) {
    var t1 = input[pos];
    if (pos + 2 >= n) { return 0 - 1; }
    var t2 = input[pos + 2];
    var key = (t1 * 7 + t2) % 37;
    tables[key] = tables[key] + 1;          // ok: 37 <= 40
    if (t1 == t2) {
        var self_id = 1000 / (t2 - t1);     // BUG: self-join div 0
        return self_id;
    }
    return key;
}

fn main(input) {
    var n = len(input);
    if (n < 7) { return 0; }
    var regs = alloc(8);
    var tables = alloc(40);
    var total = 0;
    var pos = 0;
    var statements = 0;
    while (pos < n) {
        var code = keyword_code(input, pos, n);
        if (code == 1) { pos = pos + 6; total = total + 1; continue; }
        if (code == 2) { pos = pos + 6; total = total + 2; continue; }
        if (code == 3) { pos = pos + 6; total = total + 3; continue; }
        if (code == 4) {
            total = total + eval_where(input, pos + 5, n, regs);
            while (pos < n) {
                if (input[pos] == ';') { break; }
                pos = pos + 1;
            }
            pos = pos + 1;
            statements = statements + 1;
            continue;
        }
        if (code == 5) {
            total = total + parse_limit(input, pos + 5, n);
            pos = pos + 5;
            continue;
        }
        if (code == 7) {
            total = total + parse_join(input, pos + 4, n, tables);
            pos = pos + 4;
            continue;
        }
        pos = pos + 1;
        if (statements > 12) { break; }
    }
    return total;
}
"""

SEEDS = [
    b"SELECT FROM t WHERE 34*2;",
    b"INSERT JOIN ab LIMIT 40",
    b"DELETE WHERE 9%4; SELECT LIMIT 12",
]

TOKENS = [b"SELECT", b"INSERT", b"DELETE", b"WHERE", b"LIMIT", b"FROM", b"JOIN", b";"]


def build():
    # 0 pushed, then 5, '*' collapses to 0, push 3... need top == 0 at '%':
    # "30%" -> regs 3,0 -> 3 % 0.
    mod_zero = b"WHERE 30%;"
    # LIMIT 260 -> slot 32 past the 32-entry page table.
    big_limit = b"LIMIT260"
    # JOIN whose first and third table letters coincide.
    self_join = b"JOINxyx"
    # Found by a path campaign: a JOIN at the very end of the input.
    join_at_end = bytes.fromhex("0002494e53455254e801d83b4a4f494e")
    return Subject(
        name="sqlite3",
        source=SOURCE,
        seeds=SEEDS,
        bugs=[
            make_bug(
                "eval_where", 43, "division-by-zero",
                "WHERE arithmetic takes modulo by a zero literal surviving "
                "on the operand stack (operator-sequence path)",
                mod_zero, difficulty="path-dependent",
            ),
            make_bug(
                "parse_limit", 67, "heap-buffer-overflow-write",
                "LIMIT page slot exceeds the 32-entry table",
                big_limit, difficulty="medium",
            ),
            make_bug(
                "parse_join", 78, "division-by-zero",
                "self-joins divide by the table-letter difference",
                self_join, difficulty="medium",
            ),
            make_bug(
                "parse_join", 72, "heap-buffer-overflow-read",
                "first table letter read before the bounds check",
                join_at_end, difficulty="shallow",
            ),
        ],
        tokens=TOKENS,
        max_input_len=160,
        exec_instr_budget=30_000,
        description="SQL keyword dispatch + WHERE register machine",
    )
