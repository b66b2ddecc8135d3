(** The MiniC standard library, in two variants (paper §3, "library-level
    changes"):

    - [`Exec]: idiomatic, branchy C — early returns, short-circuit scans —
      the shape a CPU likes (uClibc's role in KLEE's setup);
    - [`Verify]: same observable semantics, tailored for analysis — bitwise
      combination instead of short-circuit control flow, and precondition
      checks ([__assert]) so that bugs surface close to their root cause.

    Both variants are MiniC source compiled by our own frontend and linked
    (concatenated) with the program under test, exactly as KLEE links its
    adapted libc bitcode. *)

let common = {|
/* shared helpers, identical in both variants */

/* copy the symbolic input into a NUL-terminated buffer */
int read_input(char *buf, int cap) {
  int n = __input_size();
  if (n > cap - 1) n = cap - 1;
  for (int i = 0; i < n; i++) buf[i] = (char)__input(i);
  buf[n] = 0;
  return n;
}

int abs_(int x) { return x < 0 ? -x : x; }
int min_(int a, int b) { return a < b ? a : b; }
int max_(int a, int b) { return a > b ? a : b; }

void puts_(const char *s) {
  __assert(s != 0);
  for (int i = 0; s[i]; i++) __output(s[i]);
}

/* print a signed integer in decimal */
void print_int(int v) {
  char tmp[12];
  int i = 0;
  unsigned int u;
  if (v < 0) { __output('-'); u = (unsigned int)(-v); } else u = (unsigned int)v;
  if (u == 0) { __output('0'); return; }
  while (u > 0) { tmp[i] = (char)('0' + (int)(u % 10u)); u = u / 10u; i++; }
  while (i > 0) { i--; __output(tmp[i]); }
}

/* print an unsigned integer in the given base (2..16) */
void print_uint_base(unsigned int v, int base) {
  char tmp[36];
  int i = 0;
  __assert(base >= 2 && base <= 16);
  if (v == 0) { __output('0'); return; }
  while (v > 0) {
    int d = (int)(v % (unsigned int)base);
    tmp[i] = (char)(d < 10 ? '0' + d : 'a' + d - 10);
    v = v / (unsigned int)base;
    i++;
  }
  while (i > 0) { i--; __output(tmp[i]); }
}
|}

let exec_variant = {|
/* ---- execution-oriented libc: early exits, short-circuit scans ---- */

int isspace(int c) {
  if (c == ' ') return 1;
  if (c == '\t') return 1;
  if (c == '\n') return 1;
  if (c == '\r') return 1;
  if (c == 11) return 1;
  if (c == 12) return 1;
  return 0;
}

int isdigit(int c) { if (c >= '0' && c <= '9') return 1; return 0; }

int isupper(int c) { if (c >= 'A' && c <= 'Z') return 1; return 0; }
int islower(int c) { if (c >= 'a' && c <= 'z') return 1; return 0; }

int isalpha(int c) {
  if (c >= 'a' && c <= 'z') return 1;
  if (c >= 'A' && c <= 'Z') return 1;
  return 0;
}

int isalnum(int c) {
  if (isalpha(c)) return 1;
  if (isdigit(c)) return 1;
  return 0;
}

int isprint(int c) { if (c >= 32 && c < 127) return 1; return 0; }

int toupper(int c) { if (c >= 'a' && c <= 'z') return c - 32; return c; }
int tolower(int c) { if (c >= 'A' && c <= 'Z') return c + 32; return c; }

int strlen(const char *s) {
  int n = 0;
  while (s[n]) n++;
  return n;
}

int strcmp(const char *a, const char *b) {
  int i = 0;
  while (a[i] && a[i] == b[i]) i++;
  return (int)(unsigned char)a[i] - (int)(unsigned char)b[i];
}

int strncmp(const char *a, const char *b, int n) {
  for (int i = 0; i < n; i++) {
    if (a[i] != b[i]) return (int)(unsigned char)a[i] - (int)(unsigned char)b[i];
    if (!a[i]) return 0;
  }
  return 0;
}

char *strcpy(char *dst, const char *src) {
  int i = 0;
  while (src[i]) { dst[i] = src[i]; i++; }
  dst[i] = 0;
  return dst;
}

char *strcat(char *dst, const char *src) {
  int n = strlen(dst);
  int i = 0;
  while (src[i]) { dst[n + i] = src[i]; i++; }
  dst[n + i] = 0;
  return dst;
}

char *strchr(const char *s, int c) {
  int i = 0;
  while (s[i]) {
    if (s[i] == (char)c) return (char *)(s + i);
    i++;
  }
  if (c == 0) return (char *)(s + i);
  return 0;
}

char *strrchr(const char *s, int c) {
  char *last = 0;
  int i = 0;
  while (s[i]) {
    if (s[i] == (char)c) last = (char *)(s + i);
    i++;
  }
  if (c == 0) return (char *)(s + i);
  return last;
}

void *memcpy(void *dst, const void *src, int n) {
  char *d = (char *)dst;
  const char *s = (const char *)src;
  for (int i = 0; i < n; i++) d[i] = s[i];
  return dst;
}

void *memset(void *dst, int c, int n) {
  char *d = (char *)dst;
  for (int i = 0; i < n; i++) d[i] = (char)c;
  return dst;
}

int memcmp(const void *a, const void *b, int n) {
  const unsigned char *x = (const unsigned char *)a;
  const unsigned char *y = (const unsigned char *)b;
  for (int i = 0; i < n; i++) {
    if (x[i] != y[i]) return (int)x[i] - (int)y[i];
  }
  return 0;
}

int atoi(const char *s) {
  int i = 0;
  int sign = 1;
  int v = 0;
  while (isspace((int)(unsigned char)s[i])) i++;
  if (s[i] == '-') { sign = -1; i++; }
  else if (s[i] == '+') i++;
  while (isdigit((int)(unsigned char)s[i])) {
    v = v * 10 + (s[i] - '0');
    i++;
  }
  return sign * v;
}
|}

let verify_variant = {|
/* ---- verification-oriented libc: branch-free predicates, bounded loops,
       precondition checks ---- */

int isspace(int c) {
  return (c == ' ') | (c == '\t') | (c == '\n') | (c == '\r')
       | (c == 11) | (c == 12);
}

int isdigit(int c) { return (c >= '0') & (c <= '9'); }

int isupper(int c) { return (c >= 'A') & (c <= 'Z'); }
int islower(int c) { return (c >= 'a') & (c <= 'z'); }

int isalpha(int c) { return islower(c) | isupper(c); }

int isalnum(int c) { return isalpha(c) | isdigit(c); }

int isprint(int c) { return (c >= 32) & (c < 127); }

int toupper(int c) { return c - (islower(c) << 5); }
int tolower(int c) { return c + (isupper(c) << 5); }

int strlen(const char *s) {
  __assert(s != 0);
  int n = 0;
  while (s[n]) n++;
  return n;
}

int strcmp(const char *a, const char *b) {
  __assert(a != 0);
  __assert(b != 0);
  int i = 0;
  while (a[i] && a[i] == b[i]) i++;
  return (int)(unsigned char)a[i] - (int)(unsigned char)b[i];
}

int strncmp(const char *a, const char *b, int n) {
  __assert(a != 0);
  __assert(b != 0);
  int d = 0;
  for (int i = 0; i < n; i++) {
    int da = (int)(unsigned char)a[i];
    int db = (int)(unsigned char)b[i];
    int differ = (d == 0) & ((da != db) | (da == 0));
    d = differ ? da - db : d;
    if (d != 0) return d;     /* keep early exit: loop bound is data */
    if (da == 0) return 0;
  }
  return d;
}

char *strcpy(char *dst, const char *src) {
  __assert(dst != 0);
  __assert(src != 0);
  int i = 0;
  while (src[i]) { dst[i] = src[i]; i++; }
  dst[i] = 0;
  return dst;
}

char *strcat(char *dst, const char *src) {
  __assert(dst != 0);
  __assert(src != 0);
  int n = strlen(dst);
  int i = 0;
  while (src[i]) { dst[n + i] = src[i]; i++; }
  dst[n + i] = 0;
  return dst;
}

/* pointer-returning scans deliberately keep their early exits: a
   select-computed index would turn the result into a symbolic address,
   which costs an analyzer far more than the branch it saves */
char *strchr(const char *s, int c) {
  __assert(s != 0);
  int i = 0;
  while (s[i]) {
    if (s[i] == (char)c) return (char *)(s + i);
    i++;
  }
  if (c == 0) return (char *)(s + i);
  return 0;
}

char *strrchr(const char *s, int c) {
  __assert(s != 0);
  char *last = 0;
  int i = 0;
  while (s[i]) {
    if (s[i] == (char)c) last = (char *)(s + i);
    i++;
  }
  if (c == 0) return (char *)(s + i);
  return last;
}

void *memcpy(void *dst, const void *src, int n) {
  __assert(dst != 0);
  __assert(src != 0);
  __assert(n >= 0);
  char *d = (char *)dst;
  const char *s = (const char *)src;
  for (int i = 0; i < n; i++) d[i] = s[i];
  return dst;
}

void *memset(void *dst, int c, int n) {
  __assert(dst != 0);
  __assert(n >= 0);
  char *d = (char *)dst;
  for (int i = 0; i < n; i++) d[i] = (char)c;
  return dst;
}

int memcmp(const void *a, const void *b, int n) {
  __assert(a != 0);
  __assert(b != 0);
  const unsigned char *x = (const unsigned char *)a;
  const unsigned char *y = (const unsigned char *)b;
  int d = 0;
  for (int i = 0; i < n; i++) {
    int differ = (d == 0) & (x[i] != y[i]);
    d = differ ? (int)x[i] - (int)y[i] : d;
  }
  return d;
}

int atoi(const char *s) {
  __assert(s != 0);
  int i = 0;
  while (isspace((int)(unsigned char)s[i])) i++;
  int neg = s[i] == '-';
  i = i + ((s[i] == '-') | (s[i] == '+'));
  int v = 0;
  while (isdigit((int)(unsigned char)s[i])) {
    v = v * 10 + (s[i] - '0');
    i++;
  }
  return neg ? -v : v;
}
|}

type variant = Exec | Verify

(** MiniC source of the chosen libc variant. *)
let source = function
  | Exec -> exec_variant ^ common
  | Verify -> verify_variant ^ common

(** The variant a cost model links (paper: [-OVERIFY] "links the program
    with a specialized version of the C standard library"). *)
let for_cost_model (cm : Overify_opt.Costmodel.t) =
  if cm.Overify_opt.Costmodel.verify_libc then source Verify else source Exec

(** Parse [source] linked with the libc variant the level selects. *)
let frontend ?(link_libc = true) cm source =
  Overify_minic.Frontend.compile_sources
    (if link_libc then [ for_cost_model cm; source ] else [ source ])
