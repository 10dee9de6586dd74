"""Subject ``jhead`` — a JPEG/EXIF header digester lookalike.

Walks JPEG markers (0xFF xx with big-endian segment lengths), descends into
the EXIF APP1 payload, and decodes a couple of tag kinds.  Six planted
defects of mostly shallow-to-medium difficulty, matching the paper's jhead
where every fuzzer converges on about the same bug set.
"""

from repro.subjects.base import Subject, make_bug

SOURCE = """\
fn read_u16(buf, off) {
    return (buf[off] << 8) + buf[off + 1];
}

fn parse_app1(input, off, seglen, n) {
    if (seglen < 10) { return 0; }
    if (memcmp(input, off, "Exif", 0, 4) != 0) { return 0; }
    var tiff = off + 6;
    var entries = read_u16(input, tiff);
    var cursor = tiff + 2;
    var thumb = alloc(16);
    var acc = 0;
    for (var i = 0; i < entries; i = i + 1) {
        var tag = read_u16(input, cursor);         // BUG: cursor unchecked
        var value = read_u16(input, cursor + 2);
        if (tag == 0x0112) {
            if (value > 8) {
                var orient = 8 / (value - 9);      // BUG: div 0 at value 9
                acc = acc + orient;
            }
        }
        if (tag == 0x0201) {
            thumb[value] = 1;                      // BUG: unchecked index
        }
        if (tag == 0x0202) {
            acc = acc + input[off + value];        // BUG: offset read
        }
        cursor = cursor + 4;
    }
    return acc;
}

fn parse_sof(input, off, n) {
    if (off + 7 >= n) { return 0 - 1; }
    var height = read_u16(input, off + 1);
    var width = read_u16(input, off + 3);
    var comps = input[off + 5];
    if (comps > 4) { return 0 - 1; }
    var table = alloc(4);
    for (var c = 0; c < comps; c = c + 1) {
        table[c] = input[off + 6 + c];             // comps <= 4: safe
    }
    if (width == 0) { return 0 - 1; }
    return height / width;
}

fn main(input) {
    var n = len(input);
    if (n < 4) { return 0; }
    if (input[0] != 0xff) { return 1; }
    if (input[1] != 0xd8) { return 1; }
    var pos = 2;
    var found = 0;
    while (pos + 4 <= n) {
        if (input[pos] != 0xff) { return 0 - 2; }
        var marker = input[pos + 1];
        var seglen = read_u16(input, pos + 2);
        if (seglen < 2) { return 0 - 3; }
        if (marker == 0xe1) {
            found = found + parse_app1(input, pos + 4, seglen - 2, n);
        }
        if (marker == 0xc0) {
            var ratio = parse_sof(input, pos + 4, n);
            if (ratio > 100) {
                var t = alloc(8);
                t[ratio - 101] = 2;                // BUG: tall-image index
            }
        }
        if (marker == 0xd9) { break; }
        pos = pos + 2 + seglen;
    }
    return found;
}
"""


def _seg(marker, payload):
    seglen = len(payload) + 2
    return bytes([0xFF, marker, (seglen >> 8) & 0xFF, seglen & 0xFF]) + payload


def _exif(entries_bytes, count):
    return b"Exif\x00\x00" + bytes([0, count]) + entries_bytes


def _entry(tag, value):
    return bytes([(tag >> 8) & 0xFF, tag & 0xFF, (value >> 8) & 0xFF, value & 0xFF])


SOI = b"\xff\xd8"

SEEDS = [
    SOI + _seg(0xE1, _exif(_entry(0x0112, 3) + _entry(0x0100, 64), 2)) + b"\xff\xd9\x00\x00",
    SOI + _seg(0xC0, b"\x08\x00\x40\x00\x40\x03\x01\x02\x03") + b"\xff\xd9\x00\x00",
    SOI + _seg(0xE0, b"JFIF\x00") + b"\xff\xd9\x00\x00",
]

TOKENS = [b"Exif", b"\xff\xd8", b"\xff\xe1", b"\xff\xc0", b"\x01\x12", b"\x02\x01"]


def build():
    cursor_oob = SOI + _seg(0xE1, _exif(_entry(0x0100, 1), 40)) + b"\xff\xd9"
    div_zero = SOI + _seg(0xE1, _exif(_entry(0x0112, 9), 1)) + b"\xff\xd9\x00\x00"
    thumb_oob = SOI + _seg(0xE1, _exif(_entry(0x0201, 300), 1)) + b"\xff\xd9\x00\x00"
    offset_read = SOI + _seg(0xE1, _exif(_entry(0x0202, 5000), 1)) + b"\xff\xd9\x00\x00"
    # SOF with height 60000, width 2 -> ratio 30000 -> index 29899 of 8.
    tall = SOI + _seg(0xC0, b"\x08\xea\x60\x00\x02\x01\x05\x00\x00") + b"\xff\xd9\x00\x00"
    # Found by path and concolic campaigns: segments cut short of their
    # declared length.
    exif_cut = bytes.fromhex("ffd8ffe1001245")
    sof_cut = bytes.fromhex("ffd8ffc000074a4649460004d90000")
    return Subject(
        name="jhead",
        source=SOURCE,
        seeds=SEEDS,
        bugs=[
            make_bug(
                "read_u16", 2, "heap-buffer-overflow-read",
                "IFD cursor walks past the buffer for large entry counts",
                cursor_oob, difficulty="shallow",
            ),
            make_bug(
                "parse_app1", 18, "division-by-zero",
                "orientation normalization divides by (value - 9)",
                div_zero, difficulty="medium",
            ),
            make_bug(
                "parse_app1", 23, "heap-buffer-overflow-write",
                "thumbnail-offset tag indexes a 16-byte table unchecked",
                thumb_oob, difficulty="shallow",
            ),
            make_bug(
                "parse_app1", 26, "heap-buffer-overflow-read",
                "thumbnail-length tag used as a raw file offset",
                offset_read, difficulty="shallow",
            ),
            make_bug(
                "main", 66, "heap-buffer-overflow-write",
                "extreme aspect ratio indexes an 8-entry table",
                tall, difficulty="medium",
            ),
            make_bug(
                "parse_app1", 7, "heap-buffer-overflow-read",
                "Exif signature compared past the end of a truncated APP1",
                exif_cut, difficulty="shallow",
            ),
            make_bug(
                "parse_sof", 41, "heap-buffer-overflow-read",
                "component bytes read past the end of a truncated SOF",
                sof_cut, difficulty="shallow",
            ),
        ],
        tokens=TOKENS,
        max_input_len=160,
        exec_instr_budget=25_000,
        description="JPEG marker walker with EXIF IFD decoding",
    )
